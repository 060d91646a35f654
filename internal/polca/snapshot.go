package polca

// On-disk snapshots of the oracle's policy-output store, for warm-started
// learning: a snapshot saved after one run answers every previously-asked
// policy query of a later run straight from the store, so the backend is
// probed only for genuinely new words. Table states are a decoration the
// snapshot skips: a compiled simulator oracle recomputes them for the
// loaded nodes in one walk of its table.
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
	"bytes"
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
// alone. Table states follow from the key.
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
// with the caller's scope string. The store is encoded under outMu and
// written after it is released, so a slow writer never stalls queries.
func (o *Oracle) SaveSnapshot(w io.Writer, scope string) error {
	hdr := []byte(snapshotMagic)
	hdr = binary.AppendUvarint(hdr, snapshotVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(scope)))
	buf := bytes.NewBuffer(append(hdr, scope...))
	o.outMu.Lock()
	err := o.out.Save(buf, outCodec{})
	o.outMu.Unlock()
	if err != nil {
		return err
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("polca: writing snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot merges a snapshot into the oracle's policy-output store.
// It fails on a scope mismatch, an unsupported header, or any corruption
// the store layer detects — in every failure case the store is untouched.
// On a compiled simulator oracle it then stores at every node the table
// state its prefix reaches, as the engine does for the nodes it records.
// Loading is only allowed before the oracle has answered any query, so a
// snapshot never overwrites answers the oracle recorded itself. Several
// snapshots of the same scope may be loaded in sequence, as long as all of
// them land before the first query.
func (o *Oracle) LoadSnapshot(r io.Reader, scope string) error {
	if o.outputQueries.Load() != 0 {
		return errors.New("polca: LoadSnapshot must run before the oracle answers queries")
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
	o.outMu.Lock()
	defer o.outMu.Unlock()
	if err := o.out.Load(br, outCodec{}); err != nil {
		var se *qstore.SnapshotError
		if errors.As(err, &se) {
			return fmt.Errorf("polca: %w", err)
		}
		return err
	}
	if o.sim != nil {
		o.fillStates()
	}
	return nil
}
