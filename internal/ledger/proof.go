package ledger

// Proof formats and their offline verification. A CaseProof is
// self-contained: entries in the standard JSONL wire form, sibling
// paths into signed batch roots, and the contiguous run of signed
// roots from the earliest referenced batch through the head. Checking
// it needs only the signing public key — no WAL, no checkpoint, no
// process models — which is the whole point: a verdict bundle handed
// to a regulator stays checkable after the daemon is gone.

import (
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/audit"
)

// ErrProof reports a failed proof verification.
var ErrProof = errors.New("ledger: proof verification failed")

// SignedRoot is one sealed batch's public commitment. Sig is the
// ed25519 signature over ChainHash, which itself binds the Merkle
// root to the predecessor root's chain hash and the batch's position
// — so a verifier holding a run of roots checks both integrity and
// consistency (root N ⊆ root M) in one chain walk.
type SignedRoot struct {
	Seq       uint64 `json:"seq"`
	FirstLSN  uint64 `json:"first_lsn"`
	Leaves    int    `json:"leaves"`
	Root      string `json:"root"`       // hex Merkle root
	PrevChain string `json:"prev_chain"` // hex chain hash of root Seq-1 (seed for Seq 1)
	ChainHash string `json:"chain_hash"` // hex H(0x02 || prev || seq || firstLSN || leaves || root)
	Sig       string `json:"sig"`        // hex ed25519 over ChainHash
}

// ProofStep is one sibling on the path from a leaf to its root.
type ProofStep struct {
	Hash string `json:"hash"`
	Left bool   `json:"left"`
}

// EntryProof proves one entry into one signed root.
type EntryProof struct {
	// Entry is the JSONL wire form — the bytes the canonical
	// serialization (and hence the leaf hash) is recomputed from.
	Entry     json.RawMessage `json:"entry"`
	LSN       uint64          `json:"lsn"`
	Batch     uint64          `json:"batch"` // root Seq
	Index     int             `json:"index"` // leaf index within the batch
	PrevChain string          `json:"prev_chain"`
	Path      []ProofStep     `json:"path"`
}

// CaseProof is the full evidence for one case: every recorded entry
// with its inclusion proof, plus the signed-root chain covering them.
type CaseProof struct {
	Case      string       `json:"case"`
	Entries   []EntryProof `json:"entries"`
	Roots     []SignedRoot `json:"roots"`
	PublicKey string       `json:"public_key"`
}

// maxPathLen bounds proof paths (2^64 leaves is far beyond any batch).
const maxPathLen = 64

// VerifyRoots checks a run of signed roots: valid signatures, an
// unbroken hash chain, contiguous sequence numbers and leaf ranges.
// The chain hash is recomputed from the stated fields — never trusted
// from the ChainHash column — so any mutated field breaks either the
// recomputation or the signature.
func VerifyRoots(pub ed25519.PublicKey, roots []SignedRoot) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad public key length %d", ErrProof, len(pub))
	}
	if len(roots) == 0 {
		return fmt.Errorf("%w: no signed roots", ErrProof)
	}
	var prevChain [32]byte
	for i, r := range roots {
		if r.Leaves <= 0 || r.FirstLSN == 0 {
			return fmt.Errorf("%w: root seq %d has an empty leaf range", ErrProof, r.Seq)
		}
		if i > 0 {
			if r.Seq != roots[i-1].Seq+1 {
				return fmt.Errorf("%w: root sequence gap after seq %d", ErrProof, roots[i-1].Seq)
			}
			if r.FirstLSN != roots[i-1].FirstLSN+uint64(roots[i-1].Leaves) {
				return fmt.Errorf("%w: leaf range gap at root seq %d", ErrProof, r.Seq)
			}
		}
		rootB, err := decodeHash(r.Root)
		if err != nil {
			return fmt.Errorf("%w: root seq %d: %v", ErrProof, r.Seq, err)
		}
		prevB, err := decodeHash(r.PrevChain)
		if err != nil {
			return fmt.Errorf("%w: root seq %d prev chain: %v", ErrProof, r.Seq, err)
		}
		switch {
		case r.Seq == 1 && prevB != rootChainSeed():
			return fmt.Errorf("%w: first root not anchored at the chain seed", ErrProof)
		case i > 0 && prevB != prevChain:
			return fmt.Errorf("%w: root chain broken at seq %d", ErrProof, r.Seq)
		}
		ch := rootChainHash(&prevB, r.Seq, r.FirstLSN, r.Leaves, &rootB)
		if hex.EncodeToString(ch[:]) != r.ChainHash {
			return fmt.Errorf("%w: chain hash mismatch at root seq %d", ErrProof, r.Seq)
		}
		sig, err := hex.DecodeString(r.Sig)
		if err != nil || len(sig) != ed25519.SignatureSize {
			return fmt.Errorf("%w: malformed signature on root seq %d", ErrProof, r.Seq)
		}
		if !ed25519.Verify(pub, ch[:], sig) {
			return fmt.Errorf("%w: bad signature on root seq %d", ErrProof, r.Seq)
		}
		prevChain = ch
	}
	return nil
}

// VerifyCaseProof checks a CaseProof against a pinned public key (nil
// falls back to the proof's embedded key — self-consistency only; pin
// the key for real verification). On success every entry in the proof
// is proven recorded, in order, under the signed root chain.
func VerifyCaseProof(pub ed25519.PublicKey, p *CaseProof) error {
	if pub == nil {
		b, err := hex.DecodeString(p.PublicKey)
		if err != nil || len(b) != ed25519.PublicKeySize {
			return fmt.Errorf("%w: malformed embedded public key", ErrProof)
		}
		pub = ed25519.PublicKey(b)
	}
	if err := VerifyRoots(pub, p.Roots); err != nil {
		return err
	}
	bySeq := map[uint64]SignedRoot{}
	for _, r := range p.Roots {
		bySeq[r.Seq] = r
	}
	if len(p.Entries) == 0 {
		return fmt.Errorf("%w: proof carries no entries", ErrProof)
	}
	var prevLSN uint64
	var prevChainHex string
	dec := audit.NewEntryScanner(nil, audit.DecodeOptions{})
	for i, ep := range p.Entries {
		e, err := dec.Decode(ep.Entry)
		if err != nil {
			return fmt.Errorf("%w: entry %d undecodable: %v", ErrProof, i, err)
		}
		if e.Case != p.Case {
			return fmt.Errorf("%w: entry %d belongs to case %q, not %q", ErrProof, i, e.Case, p.Case)
		}
		if ep.LSN <= prevLSN {
			return fmt.Errorf("%w: entries out of LSN order at %d", ErrProof, i)
		}
		r, ok := bySeq[ep.Batch]
		if !ok {
			return fmt.Errorf("%w: entry %d references missing root seq %d", ErrProof, i, ep.Batch)
		}
		if ep.Index < 0 || ep.Index >= r.Leaves {
			return fmt.Errorf("%w: entry %d index %d outside root seq %d", ErrProof, i, ep.Index, ep.Batch)
		}
		if ep.LSN != r.FirstLSN+uint64(ep.Index) {
			return fmt.Errorf("%w: entry %d LSN %d does not match index %d of root seq %d", ErrProof, i, ep.LSN, ep.Index, ep.Batch)
		}
		prev, err := decodeHash(ep.PrevChain)
		if err != nil {
			return fmt.Errorf("%w: entry %d prev chain: %v", ErrProof, i, err)
		}
		// Consecutive leaves of the same case must chain directly.
		if prevLSN != 0 && ep.LSN == prevLSN+1 && ep.PrevChain != prevChainHex {
			return fmt.Errorf("%w: leaf chain broken between LSN %d and %d", ErrProof, prevLSN, ep.LSN)
		}
		chain := audit.ChainNext(prev, e)
		cur := leafHash(&chain)
		if len(ep.Path) > maxPathLen {
			return fmt.Errorf("%w: entry %d path too long", ErrProof, i)
		}
		for _, step := range ep.Path {
			sib, err := decodeHash(step.Hash)
			if err != nil {
				return fmt.Errorf("%w: entry %d path: %v", ErrProof, i, err)
			}
			if step.Left {
				cur = nodeHash(&sib, &cur)
			} else {
				cur = nodeHash(&cur, &sib)
			}
		}
		if hex.EncodeToString(cur[:]) != r.Root {
			return fmt.Errorf("%w: entry at LSN %d does not prove into root seq %d", ErrProof, ep.LSN, ep.Batch)
		}
		prevLSN = ep.LSN
		prevChainHex = hex.EncodeToString(chain[:])
	}
	return nil
}

func decodeHash(s string) ([32]byte, error) {
	var h [32]byte
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, err
	}
	if len(b) != len(h) {
		return h, fmt.Errorf("hash is %d bytes, want 32", len(b))
	}
	copy(h[:], b)
	return h, nil
}
