package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/learn"
)

// TestSnapshotGoldenDigest pins the bytes of the oracle snapshot a New1-4
// L* learn at k = 1 saves. The snapshot is the output store's depth-first
// image, so the digest moves whenever the store changes its walk order,
// its delta coding or its value codec — a change that must be deliberate,
// since it invalidates every snapshot on disk.
func TestSnapshotGoldenDigest(t *testing.T) {
	const want = "810b9c974c0e36e529eaf705c5b2c1ed86435b12b2ec8180961b350f05fa1e48"
	path := filepath.Join(t.TempDir(), "new1.qs")
	if _, err := LearnSimulated(context.Background(), SimRequest{
		Policy:   "New1",
		Assoc:    4,
		Learn:    learn.Options{Depth: 1},
		Snapshot: SnapshotOptions{SavePath: path},
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("New1-4 snapshot sha256 = %s, want %s (%d bytes)", got, want, len(data))
	}
}
