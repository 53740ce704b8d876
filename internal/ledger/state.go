package ledger

// Checkpoint persistence. The exported state carries only the sealed
// batches — each signed root plus the canonical bytes its leaves
// committed to, concatenated exactly as the leaf chain hashed them;
// chains, Merkle trees, the batch tree and the case index are
// recomputed on load and checked against the stored roots and
// signatures, so a tampered checkpoint refuses to restore instead of
// silently re-serving edited history. Open leaves are deliberately
// absent: they rebuild from WAL replay (the server clamps WAL
// truncation to the last checkpointed sealed LSN). At rest the batches
// live in the ledger archive (archive.go), which ReadArchive turns back
// into this state; checkpoints written before the archive carry the
// state itself, as version 1 or 2 JSON, and still load.

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/audit"
)

// stateVersion is the version ExportState writes. Version 2 stores a
// batch's leaves as canonical bytes; version 1 stored one wire-form
// JSON entry per leaf and still loads, converted to version 2 first.
const stateVersion = 2

// BatchState is one sealed batch at rest.
type BatchState struct {
	Root SignedRoot `json:"root"`
	// Canon is the batch's leaves as the concatenation of their
	// audit.CanonicalEntry bytes (version 2). The canonical form is
	// self-delimiting, so the leaves split back without an index.
	Canon []byte `json:"canon,omitempty"`
	// Entries is the version 1 form: one JSONL wire entry per leaf.
	Entries []json.RawMessage `json:"entries,omitempty"`
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

// ExportState snapshots the sealed batches for a checkpoint: each
// batch's leaves are copied out of the arena as the bytes they hashed.
func (l *Ledger) ExportState() (*State, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := &State{Version: stateVersion, Batches: make([]BatchState, 0, len(l.batches))}
	for _, r := range l.batches {
		first, end := int(r.FirstLSN)-1, int(r.FirstLSN)-1+r.Leaves
		size := 0
		for i := first; i < end; i++ {
			size += int(l.leaves.at(i).n)
		}
		canon := make([]byte, 0, size)
		for i := first; i < end; i++ {
			canon = append(canon, l.canon.bytes(l.leaves.at(i))...)
		}
		st.Batches = append(st.Batches, BatchState{Root: r, Canon: canon})
	}
	return st, nil
}

// LoadState restores sealed batches into an empty ledger, recomputing
// every chain, root and signature check along the way. Any mismatch —
// an edited or malformed leaf, a leaf count the root does not sign, a
// reordered batch, a root signed by a different key — fails the load.
// Each leaf is checked in place (audit.NextCanonicalEntry accepts
// exactly what audit.ParseCanonicalEntry does) and its stored bytes
// are chained as they are, so no entry is rebuilt. A version 1 state
// is converted to canonical bytes first and takes the same path.
func (l *Ledger) LoadState(st *State) error {
	if st == nil || len(st.Batches) == 0 {
		return nil
	}
	switch st.Version {
	case stateVersion:
	case 1:
		var err error
		if st, err = upgradeStateV1(st); err != nil {
			return err
		}
	default:
		return fmt.Errorf("ledger: unsupported state version %d", st.Version)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.leaves.n != 0 {
		return errors.New("ledger: state must load into an empty ledger")
	}
	for bi, bs := range st.Batches {
		r := bs.Root
		if r.Seq != uint64(bi)+1 {
			return fmt.Errorf("ledger: state batch %d has seq %d", bi, r.Seq)
		}
		if r.Leaves < 1 {
			return fmt.Errorf("ledger: state batch seq %d has %d leaves", r.Seq, r.Leaves)
		}
		if bs.Entries != nil {
			return fmt.Errorf("ledger: version %d state batch seq %d carries version 1 entries", stateVersion, r.Seq)
		}
		if r.FirstLSN != l.lastLSNLocked()+1 {
			return fmt.Errorf("ledger: state batch seq %d starts at LSN %d, want %d", r.Seq, r.FirstLSN, l.lastLSNLocked()+1)
		}
		if uint64(r.Leaves) > maxLeaves-l.lastLSNLocked() {
			return fmt.Errorf("ledger: state batch seq %d overflows the ledger's %d leaves", r.Seq, uint64(maxLeaves))
		}
		if r.PrevChain != hex.EncodeToString(l.prevRootChain[:]) {
			return fmt.Errorf("ledger: state batch seq %d breaks the root chain", r.Seq)
		}
		first := l.leaves.n
		rest := bs.Canon
		for i := 0; i < r.Leaves; i++ {
			n, c, err := audit.NextCanonicalEntry(rest)
			if err != nil {
				return fmt.Errorf("ledger: state batch seq %d leaf %d of %d: %w", r.Seq, i+1, r.Leaves, err)
			}
			l.leafLocked(rest[:n], c)
			rest = rest[n:]
		}
		if len(rest) != 0 {
			return fmt.Errorf("ledger: state batch seq %d has %d bytes past its %d leaves", r.Seq, len(rest), r.Leaves)
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
		// Signing is deterministic, so the signature sealLocked wrote
		// is the one the key makes over the chain hash now: re-deriving
		// it accepts only the ledger's own signature (a narrower set
		// than ed25519.Verify's) at about half Verify's cost.
		sig, err := hex.DecodeString(r.Sig)
		if err != nil || !bytes.Equal(sig, ed25519.Sign(l.opts.Key, ch[:])) {
			return fmt.Errorf("ledger: state batch seq %d signature invalid under the configured key", r.Seq)
		}
		l.batches = append(l.batches, r)
		l.tree.append(&ch)
		l.prevRootChain = ch
		l.sealedLeaves += uint64(r.Leaves)
	}
	return nil
}

// upgradeStateV1 converts a version 1 state, whose batches carry JSON
// wire entries, into version 2 by re-encoding each entry as the
// canonical bytes its leaf hashed. Nothing is checked here beyond the
// entries decoding: the converted state goes through LoadState's
// checks like any other.
func upgradeStateV1(st *State) (*State, error) {
	dec := audit.NewEntryScanner(nil, audit.DecodeOptions{})
	up := &State{Version: stateVersion, Batches: make([]BatchState, len(st.Batches))}
	for bi, bs := range st.Batches {
		if bs.Canon != nil {
			return nil, fmt.Errorf("ledger: version 1 state batch %d carries canonical bytes", bi)
		}
		var canon []byte
		for i, raw := range bs.Entries {
			e, err := dec.Decode(raw)
			if err != nil {
				return nil, fmt.Errorf("ledger: version 1 state batch seq %d entry %d: %w", bs.Root.Seq, i, err)
			}
			canon = audit.AppendCanonicalEntry(canon, e)
		}
		up.Batches[bi] = BatchState{Root: bs.Root, Canon: canon}
	}
	return up, nil
}
