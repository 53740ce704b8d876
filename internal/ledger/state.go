package ledger

// Checkpoint persistence. The exported state carries only the sealed
// batches — each root plus its entries in wire form, rendered from the
// leaves' canonical bytes (so in UTC); chains, Merkle
// trees, the batch tree and the case index are recomputed on load and checked against
// the stored roots and signatures, so a tampered checkpoint refuses
// to restore instead of silently re-serving edited history. Open
// leaves are deliberately absent: they rebuild from WAL replay (the
// server clamps WAL truncation to the last checkpointed sealed LSN).

import (
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/audit"
)

// stateVersion guards the exported shape.
const stateVersion = 1

// BatchState is one sealed batch at rest.
type BatchState struct {
	Root    SignedRoot        `json:"root"`
	Entries []json.RawMessage `json:"entries"`
}

// State is the ledger's checkpointable form.
type State struct {
	Version int          `json:"version"`
	Batches []BatchState `json:"batches,omitempty"`
}

// LastLSN returns the last sealed leaf LSN the state covers.
func (st *State) LastLSN() uint64 {
	if st == nil || len(st.Batches) == 0 {
		return 0
	}
	r := st.Batches[len(st.Batches)-1].Root
	return r.FirstLSN + uint64(r.Leaves) - 1
}

// ExportState snapshots the sealed batches for a checkpoint.
func (l *Ledger) ExportState() (*State, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := &State{Version: stateVersion}
	for _, r := range l.batches {
		bs := BatchState{Root: r, Entries: make([]json.RawMessage, r.Leaves)}
		for i := range bs.Entries {
			raw, err := l.entryJSONLocked(int(r.FirstLSN) - 1 + i)
			if err != nil {
				return nil, fmt.Errorf("ledger: exporting state: %w", err)
			}
			bs.Entries[i] = raw
		}
		st.Batches = append(st.Batches, bs)
	}
	return st, nil
}

// LoadState restores sealed batches into an empty ledger, recomputing
// every chain, root and signature check along the way. Any mismatch —
// an edited entry, a reordered batch, a root signed by a different
// key — fails the load.
func (l *Ledger) LoadState(st *State) error {
	if st == nil || len(st.Batches) == 0 {
		return nil
	}
	if st.Version != stateVersion {
		return fmt.Errorf("ledger: unsupported state version %d", st.Version)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.leaves.n != 0 {
		return errors.New("ledger: state must load into an empty ledger")
	}
	// One scanner decodes every checkpointed entry: its fast path and
	// warm intern tables give the same entries as audit.DecodeEntryJSON.
	dec := audit.NewEntryScanner(nil, audit.DecodeOptions{})
	for bi, bs := range st.Batches {
		r := bs.Root
		if r.Seq != uint64(bi)+1 {
			return fmt.Errorf("ledger: state batch %d has seq %d", bi, r.Seq)
		}
		if len(bs.Entries) != r.Leaves {
			return fmt.Errorf("ledger: state batch seq %d has %d entries, root says %d", r.Seq, len(bs.Entries), r.Leaves)
		}
		if r.FirstLSN != l.lastLSNLocked()+1 {
			return fmt.Errorf("ledger: state batch seq %d starts at LSN %d, want %d", r.Seq, r.FirstLSN, l.lastLSNLocked()+1)
		}
		if r.PrevChain != hex.EncodeToString(l.prevRootChain[:]) {
			return fmt.Errorf("ledger: state batch seq %d breaks the root chain", r.Seq)
		}
		first := l.leaves.n
		for i, raw := range bs.Entries {
			e, err := dec.Decode(raw)
			if err != nil {
				return fmt.Errorf("ledger: state batch seq %d entry %d: %w", r.Seq, i, err)
			}
			l.chainLeafLocked(&e)
		}
		l.hashes = l.leafHashes(l.hashes[:0], first, l.leaves.n)
		root := merkleRoot(l.hashes)
		if hex.EncodeToString(root[:]) != r.Root {
			return fmt.Errorf("ledger: state batch seq %d root mismatch (checkpoint tampered?)", r.Seq)
		}
		ch := rootChainHash(&l.prevRootChain, r.Seq, r.FirstLSN, r.Leaves, &root)
		if hex.EncodeToString(ch[:]) != r.ChainHash {
			return fmt.Errorf("ledger: state batch seq %d chain hash mismatch", r.Seq)
		}
		sig, err := hex.DecodeString(r.Sig)
		if err != nil || len(sig) != ed25519.SignatureSize || !ed25519.Verify(l.pub, ch[:], sig) {
			return fmt.Errorf("ledger: state batch seq %d signature invalid under the configured key", r.Seq)
		}
		l.batches = append(l.batches, r)
		l.tree.append(&ch)
		l.prevRootChain = ch
		l.sealedLeaves += uint64(r.Leaves)
	}
	return nil
}
