package polca

// On-disk snapshots of the oracle's policy-output store, for warm-started
// learning: a snapshot saved after one run answers every previously-asked
// policy query of a later run straight from the store, so the backend is
// probed only for genuinely new words. Parked sessions are a decoration
// the snapshot skips — a warm oracle re-opens sessions lazily, and only
// for words that actually extend past the recorded prefixes.
//
// A snapshot is only meaningful against the same system under the same
// reset: replaying outputs recorded for a different policy or reset would
// silently mix two trace semantics. Callers therefore tag snapshots with
// a scope string (e.g. "sim:LRU-4", "hw:skylake/L2:0:0/reset=...") and
// LoadSnapshot refuses a scope mismatch; the store layer additionally
// checksums the payload and rejects truncated, corrupt, or
// version-mismatched files (see internal/qstore).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/qstore"
)

// snapshotMagic brands oracle snapshots ahead of the store payload.
const snapshotMagic = "POLCAQS"

// snapshotVersion is the oracle-level header version.
const snapshotVersion = 1

// ErrSnapshotScope is returned by LoadSnapshot when the snapshot was
// recorded for a different scope (policy, reset, or hardware target) than
// the oracle loading it. Unlike corruption this is not a damaged file —
// warm-start callers must not silently degrade to a cold run over it
// without surfacing the mismatch, since it usually means a mislabeled
// snapshot path.
var ErrSnapshotScope = errors.New("polca: snapshot scope mismatch")

// corruptf wraps a snapshot-header decoding failure as qstore.ErrCorrupt,
// so callers can errors.Is-match damaged files uniformly across the oracle
// header and the store payload.
func corruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, qstore.ErrCorrupt)...)
}

// outCodec encodes output-store values for snapshots: the policy output
// alone. Sessions and LRU links are transient decorations.
type outCodec struct{}

// AppendValue implements qstore.Codec.
func (outCodec) AppendValue(dst []byte, v outVal) []byte {
	return binary.AppendVarint(dst, int64(v.out))
}

// DecodeValue implements qstore.Codec.
func (outCodec) DecodeValue(src []byte) (outVal, int, error) {
	x, n := binary.Varint(src)
	if n <= 0 {
		return outVal{}, 0, fmt.Errorf("truncated output value")
	}
	return outVal{out: int16(x)}, n, nil
}

// SaveSnapshot writes the oracle's recorded policy outputs to w, tagged
// with the caller's scope string.
func (o *Oracle) SaveSnapshot(w io.Writer, scope string) error {
	var hdr []byte
	hdr = append(hdr, snapshotMagic...)
	hdr = binary.AppendUvarint(hdr, snapshotVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(scope)))
	hdr = append(hdr, scope...)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("polca: writing snapshot header: %w", err)
	}
	return o.out.Save(w, outCodec{})
}

// LoadSnapshot merges a snapshot into the oracle's policy-output store.
// It fails on a scope mismatch, an unsupported header, or any corruption
// the store layer detects — in every failure case the store is untouched.
// Loading is only allowed before the oracle has answered any query:
// applying snapshot entries over nodes that already hold live parked
// sessions would wipe the decorations while the LRU bookkeeping still
// references them. Several snapshots of the same scope may be loaded in
// sequence, as long as all of them land before the first query.
func (o *Oracle) LoadSnapshot(r io.Reader, scope string) error {
	if o.outputQueries.Load() != 0 {
		return errors.New("polca: LoadSnapshot must run before the oracle answers queries (loading over parked sessions would corrupt them)")
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return corruptf("polca: reading snapshot header: %v", err)
	}
	if string(magic) != snapshotMagic {
		return corruptf("polca: not an oracle snapshot (bad magic %q)", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return corruptf("polca: reading snapshot header: %v", err)
	}
	if version != snapshotVersion {
		return corruptf("polca: unsupported oracle snapshot version %d (want %d)", version, snapshotVersion)
	}
	scopeLen, err := binary.ReadUvarint(br)
	if err != nil {
		return corruptf("polca: reading snapshot header: %v", err)
	}
	const maxScope = 1 << 16
	if scopeLen > maxScope {
		return corruptf("polca: implausible snapshot scope length %d", scopeLen)
	}
	got := make([]byte, scopeLen)
	if _, err := io.ReadFull(br, got); err != nil {
		return corruptf("polca: reading snapshot header: %v", err)
	}
	if string(got) != scope {
		return fmt.Errorf("%w: snapshot recorded for %q, this oracle is %q", ErrSnapshotScope, got, scope)
	}
	if err := o.out.Load(br, outCodec{}); err != nil {
		var se *qstore.SnapshotError
		if errors.As(err, &se) {
			return fmt.Errorf("polca: %w", err)
		}
		return err
	}
	return nil
}
