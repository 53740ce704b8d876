package ledger

// The ledger archive: sealed batches at rest outside the checkpoint.
// A checkpoint used to carry every sealed batch in its JSON, so each
// write re-encoded the whole ledger and each boot decoded it. Instead
// every batch sealed since the last checkpoint is appended to an
// append-only file as one CRC frame (encode.AppendRecordFrame), and
// the checkpoint holds only an ArchiveRef naming the prefix it covers.
// A frame's payload is exactly what a version 2 state stores per
// batch, the signed root in binary plus the leaves' canonical bytes:
//
//	[0:8)     uint64 seq
//	[8:16)    uint64 first LSN
//	[16:20)   uint32 leaves
//	[20:52)   Merkle root
//	[52:84)   previous root chain hash
//	[84:116)  root chain hash
//	[116:180) ed25519 signature
//	[180:)    the leaves' canonical bytes, concatenated
//
// little-endian. ReadArchive turns the referenced prefix back into a
// version 2 State, which goes through LoadState's checks unchanged.

import (
	"crypto/ed25519"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/encode"
)

// ArchiveVersion is the ledger state version of an ArchiveRef: after
// version 1 (JSON entries) and 2 (canonical bytes in the JSON), the
// batches live in the archive and the checkpoint only points at them.
const ArchiveVersion = 3

// archiveHeader is the size of a frame payload's binary root.
const archiveHeader = 8 + 8 + 4 + 3*32 + ed25519.SignatureSize

// ArchiveRef is a checkpoint's reference to the archive prefix holding
// its sealed batches: how many, how many bytes, and the root chain
// hash the last one ends on (empty when no batch has sealed).
type ArchiveRef struct {
	Version   int    `json:"version"`
	Batches   int    `json:"batches"`
	Bytes     int64  `json:"bytes"`
	ChainHash string `json:"chain_hash,omitempty"`
}

// AppendArchive appends to dst one archive frame for each batch sealed
// past the ref.Batches already archived, and returns the extended dst,
// the reference to the archive with those frames appended, and the
// last sealed LSN that reference covers. Batches are immutable once
// sealed, so this costs O(new batches).
func (l *Ledger) AppendArchive(dst []byte, ref ArchiveRef) ([]byte, ArchiveRef, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ref.Batches < 0 || ref.Batches > len(l.batches) {
		return dst, ref, 0, fmt.Errorf("ledger: archive holds %d batches, the ledger %d", ref.Batches, len(l.batches))
	}
	start := len(dst)
	var payload []byte
	for _, r := range l.batches[ref.Batches:] {
		payload = binary.LittleEndian.AppendUint64(payload[:0], r.Seq)
		payload = binary.LittleEndian.AppendUint64(payload, r.FirstLSN)
		payload = binary.LittleEndian.AppendUint32(payload, uint32(r.Leaves))
		// The hex fields are the ledger's own rendering (sealLocked's, or
		// LoadState-checked equal to it), so they decode to 32, 32, 32
		// and 64 bytes.
		for _, h := range []string{r.Root, r.PrevChain, r.ChainHash, r.Sig} {
			var err error
			if payload, err = hex.AppendDecode(payload, []byte(h)); err != nil {
				return dst[:start], ref, 0, fmt.Errorf("ledger: batch seq %d: %w", r.Seq, err)
			}
		}
		for i := int(r.FirstLSN) - 1; i < int(r.FirstLSN)-1+r.Leaves; i++ {
			payload = append(payload, l.canon.bytes(l.leaves.at(i))...)
		}
		dst = encode.AppendRecordFrame(dst, payload)
	}
	out := ArchiveRef{Version: ArchiveVersion, Batches: len(l.batches), Bytes: ref.Bytes + int64(len(dst)-start)}
	if n := len(l.batches); n > 0 {
		out.ChainHash = l.batches[n-1].ChainHash
	}
	return dst, out, l.sealedLeaves, nil
}

// ReadArchive decodes the archive prefix ref names into a version 2
// state for LoadState, whose canonical bytes alias data. It refuses a
// reference of another version, an archive shorter than the reference,
// a frame failing its CRC or too short to hold a root, a batch count
// other than the reference's, and a prefix ending on another chain
// hash; bytes past the prefix are not read. What it returns is
// unchecked: LoadState re-derives every chain, root and signature.
func ReadArchive(data []byte, ref ArchiveRef) (*State, error) {
	if ref.Version != ArchiveVersion {
		return nil, fmt.Errorf("ledger: unsupported archive reference version %d", ref.Version)
	}
	if ref.Batches < 0 || ref.Bytes < 0 {
		return nil, fmt.Errorf("ledger: archive reference to %d batches in %d bytes", ref.Batches, ref.Bytes)
	}
	if int64(len(data)) < ref.Bytes {
		return nil, fmt.Errorf("ledger: archive is %d bytes, shorter than the %d its checkpoint references", len(data), ref.Bytes)
	}
	data = data[:ref.Bytes]
	// A batch takes at least one frame header and one root, so the
	// reference's count bounds the allocation only up to what the
	// referenced bytes can hold.
	st := &State{Version: stateVersion, Batches: make([]BatchState, 0, min(ref.Batches, len(data)/(encode.FrameOverhead+archiveHeader)))}
	for off := 0; off < len(data); {
		payload, n, err := encode.ReadRecordFrame(data[off:])
		if errors.Is(err, encode.ErrFrameTruncated) {
			return nil, fmt.Errorf("ledger: archive frame %d at byte %d runs past the referenced %d bytes", len(st.Batches)+1, off, ref.Bytes)
		}
		if err != nil {
			return nil, fmt.Errorf("ledger: archive frame %d at byte %d: %w", len(st.Batches)+1, off, err)
		}
		if len(payload) < archiveHeader {
			return nil, fmt.Errorf("ledger: archive frame %d at byte %d holds %d bytes, too short for a root", len(st.Batches)+1, off, len(payload))
		}
		h := hex.EncodeToString(payload[20:archiveHeader])
		st.Batches = append(st.Batches, BatchState{
			Root: SignedRoot{
				Seq:       binary.LittleEndian.Uint64(payload),
				FirstLSN:  binary.LittleEndian.Uint64(payload[8:]),
				Leaves:    int(binary.LittleEndian.Uint32(payload[16:])),
				Root:      h[:64],
				PrevChain: h[64:128],
				ChainHash: h[128:192],
				Sig:       h[192:],
			},
			Canon: payload[archiveHeader:],
		})
		off += n
	}
	if len(st.Batches) != ref.Batches {
		return nil, fmt.Errorf("ledger: archive prefix holds %d batches, its checkpoint references %d", len(st.Batches), ref.Batches)
	}
	last := ""
	if n := len(st.Batches); n > 0 {
		last = st.Batches[n-1].Root.ChainHash
	}
	if last != ref.ChainHash {
		return nil, fmt.Errorf("ledger: archive prefix ends on chain hash %q, its checkpoint references %q", last, ref.ChainHash)
	}
	return st, nil
}
