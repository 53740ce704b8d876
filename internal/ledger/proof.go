package ledger

// Proof formats and their offline verification. A CaseProof is
// self-contained: entries in the standard JSONL wire form, the signed
// roots of the batches holding them, and one signed tree head. Each
// referenced root proves into the head with an RFC 9162 inclusion path
// through the batch tree, and the case's entries in a batch prove into
// its root with one multiproof, so a bundle grows with the log of the
// ledger, not with its length. Checking it needs only the signing
// public key — no WAL, no checkpoint, no process models — which is the
// whole point: a verdict bundle handed to a regulator stays checkable
// after the daemon is gone. Version 1 bundles, written before the
// batch tree existed (every root from the case's first batch to the
// head, a full path per entry), still verify.

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

// proofVersion is the CaseProof version ProveCase writes.
const proofVersion = 2

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

// SignedHead commits to the first Size batches at once: Root is the
// RFC 6962 root of the batch tree over their chain hashes, and Sig the
// ed25519 signature over H(0x03 || Size || Root).
type SignedHead struct {
	Size uint64 `json:"size"`
	Root string `json:"root"` // hex batch tree root
	Sig  string `json:"sig"`  // hex ed25519 over headHash(Size, Root)
}

// ProofStep is one sibling on a version 1 per-entry path.
type ProofStep struct {
	Hash string `json:"hash"`
	Left bool   `json:"left"`
}

// EntryProof places one entry in one signed root.
type EntryProof struct {
	// Entry is the JSONL wire form — the bytes the canonical
	// serialization (and hence the leaf hash) is recomputed from.
	Entry json.RawMessage `json:"entry"`
	LSN   uint64          `json:"lsn"`
	Batch uint64          `json:"batch"` // root Seq
	Index int             `json:"index"` // leaf index within the batch
	// PrevChain is the leaf chain hash before this entry. Version 2
	// carries it only where the entry does not follow the previous one
	// (LSN+1); otherwise the previous entry's chain hash is used.
	PrevChain string `json:"prev_chain,omitempty"`
	// Path is the version 1 sibling path into the batch root.
	Path []ProofStep `json:"path,omitempty"`
}

// BatchProof ties one referenced batch of a version 2 CaseProof to the
// head and to its entries; Batches[i] is the proof for Roots[i].
type BatchProof struct {
	// Inclusion is the RFC 9162 path of the paired root's chain hash
	// (leaf Seq-1) into the head's batch tree, leaf end first.
	Inclusion []string `json:"inclusion,omitempty"`
	// Siblings is the multiproof that recomputes the batch root from
	// the case's entries in it: level by level, left to right.
	Siblings []string `json:"siblings,omitempty"`
}

// CaseProof is the full evidence for one case: every recorded entry,
// the signed roots of the batches holding them, and (version 2) how
// those roots and entries prove into one signed tree head.
type CaseProof struct {
	Case string `json:"case"`
	// Version is 2 for bundles ProveCase writes; 0 (absent) marks a
	// version 1 bundle: contiguous roots through the head, a path per
	// entry.
	Version int          `json:"version,omitempty"`
	Entries []EntryProof `json:"entries"`
	// Roots holds, in version 2, only the referenced batches' roots,
	// ascending, with Batches[i] proving Roots[i].
	Roots     []SignedRoot `json:"roots"`
	Batches   []BatchProof `json:"batches,omitempty"`
	Head      *SignedHead  `json:"head,omitempty"`
	PublicKey string       `json:"public_key"`
}

// maxPathLen bounds proof paths (2^64 leaves is far beyond any tree).
const maxPathLen = 64

// checkRoot recomputes one root's chain hash from its stated fields —
// never trusting the ChainHash column — and checks the signature over
// it, so any mutated field breaks either the recomputation or the
// signature. It returns the chain hash and the stated predecessor.
func checkRoot(pub ed25519.PublicKey, r *SignedRoot) (ch, prev [32]byte, err error) {
	if r.Leaves <= 0 || r.FirstLSN == 0 {
		return ch, prev, fmt.Errorf("%w: root seq %d has an empty leaf range", ErrProof, r.Seq)
	}
	root, err := decodeHash(r.Root)
	if err != nil {
		return ch, prev, fmt.Errorf("%w: root seq %d: %v", ErrProof, r.Seq, err)
	}
	if prev, err = decodeHash(r.PrevChain); err != nil {
		return ch, prev, fmt.Errorf("%w: root seq %d prev chain: %v", ErrProof, r.Seq, err)
	}
	if r.Seq == 1 && prev != rootChainSeed() {
		return ch, prev, fmt.Errorf("%w: first root not anchored at the chain seed", ErrProof)
	}
	ch = rootChainHash(&prev, r.Seq, r.FirstLSN, r.Leaves, &root)
	if hex.EncodeToString(ch[:]) != r.ChainHash {
		return ch, prev, fmt.Errorf("%w: chain hash mismatch at root seq %d", ErrProof, r.Seq)
	}
	if err := checkSig(pub, ch[:], r.Sig); err != nil {
		return ch, prev, fmt.Errorf("%w: root seq %d: %v", ErrProof, r.Seq, err)
	}
	return ch, prev, nil
}

// checkSig verifies a hex ed25519 signature over msg.
func checkSig(pub ed25519.PublicKey, msg []byte, sigHex string) error {
	sig, err := hex.DecodeString(sigHex)
	if err != nil || len(sig) != ed25519.SignatureSize {
		return errors.New("malformed signature")
	}
	if !ed25519.Verify(pub, msg, sig) {
		return errors.New("bad signature")
	}
	return nil
}

func checkPub(pub ed25519.PublicKey) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad public key length %d", ErrProof, len(pub))
	}
	return nil
}

// VerifyRoots checks a run of signed roots: valid signatures, an
// unbroken hash chain, contiguous sequence numbers and leaf ranges.
func VerifyRoots(pub ed25519.PublicKey, roots []SignedRoot) error {
	if err := checkPub(pub); err != nil {
		return err
	}
	if len(roots) == 0 {
		return fmt.Errorf("%w: no signed roots", ErrProof)
	}
	var prevChain [32]byte
	for i := range roots {
		r := &roots[i]
		if i > 0 {
			if r.Seq != roots[i-1].Seq+1 {
				return fmt.Errorf("%w: root sequence gap after seq %d", ErrProof, roots[i-1].Seq)
			}
			if r.FirstLSN != roots[i-1].FirstLSN+uint64(roots[i-1].Leaves) {
				return fmt.Errorf("%w: leaf range gap at root seq %d", ErrProof, r.Seq)
			}
		}
		ch, prev, err := checkRoot(pub, r)
		if err != nil {
			return err
		}
		if i > 0 && prev != prevChain {
			return fmt.Errorf("%w: root chain broken at seq %d", ErrProof, r.Seq)
		}
		prevChain = ch
	}
	return nil
}

// checkHead verifies a tree head's signature and returns its root.
func checkHead(pub ed25519.PublicKey, h *SignedHead) ([32]byte, error) {
	if h == nil || h.Size == 0 {
		return [32]byte{}, fmt.Errorf("%w: no signed tree head", ErrProof)
	}
	root, err := decodeHash(h.Root)
	if err != nil {
		return root, fmt.Errorf("%w: tree head root: %v", ErrProof, err)
	}
	msg := headHash(h.Size, &root)
	if err := checkSig(pub, msg[:], h.Sig); err != nil {
		return root, fmt.Errorf("%w: tree head of size %d: %v", ErrProof, h.Size, err)
	}
	return root, nil
}

// VerifyConsistency checks that the ledger under head cur extends the
// one under head old without rewriting it: both heads are signed by
// pub and proof is the RFC 9162 consistency proof between their sizes
// (GET /v1/roots?since=<old.Size> serves it).
func VerifyConsistency(pub ed25519.PublicKey, old, cur *SignedHead, proof []string) error {
	if err := checkPub(pub); err != nil {
		return err
	}
	oldRoot, err := checkHead(pub, old)
	if err != nil {
		return err
	}
	curRoot, err := checkHead(pub, cur)
	if err != nil {
		return err
	}
	hashes, err := decodeHashes(proof)
	if err != nil {
		return fmt.Errorf("%w: consistency proof: %v", ErrProof, err)
	}
	if err := checkConsistency(old.Size, cur.Size, oldRoot, curRoot, hashes); err != nil {
		return fmt.Errorf("%w: %v", ErrProof, err)
	}
	return nil
}

// VerifyCaseProof checks a CaseProof against a pinned public key (nil
// falls back to the proof's embedded key — self-consistency only; pin
// the key for real verification). On success every entry in the proof
// is proven recorded, in order, under the signed head (version 2) or
// the signed root chain (version 1).
func VerifyCaseProof(pub ed25519.PublicKey, p *CaseProof) error {
	if p == nil {
		return fmt.Errorf("%w: no proof", ErrProof)
	}
	if pub == nil {
		b, err := hex.DecodeString(p.PublicKey)
		if err != nil || len(b) != ed25519.PublicKeySize {
			return fmt.Errorf("%w: malformed embedded public key", ErrProof)
		}
		pub = ed25519.PublicKey(b)
	}
	if err := checkPub(pub); err != nil {
		return err
	}
	if len(p.Entries) == 0 {
		return fmt.Errorf("%w: proof carries no entries", ErrProof)
	}
	switch p.Version {
	case 0:
		return verifyCaseProofV1(pub, p)
	case proofVersion:
		return verifyCaseProofV2(pub, p)
	}
	return fmt.Errorf("%w: unsupported proof version %d", ErrProof, p.Version)
}

// caseEntry decodes the i-th entry of p and checks it belongs to the
// case and its LSN is above prevLSN, the previous entry's.
func caseEntry(dec *audit.EntryScanner, p *CaseProof, i int, prevLSN uint64) (audit.Entry, error) {
	ep := &p.Entries[i]
	e, err := dec.Decode(ep.Entry)
	if err != nil {
		return e, fmt.Errorf("%w: entry %d undecodable: %v", ErrProof, i, err)
	}
	if e.Case != p.Case {
		return e, fmt.Errorf("%w: entry %d belongs to case %q, not %q", ErrProof, i, e.Case, p.Case)
	}
	if ep.LSN <= prevLSN {
		return e, fmt.Errorf("%w: entries out of LSN order at %d", ErrProof, i)
	}
	return e, nil
}

// checkPlacement checks that entry i's batch index and LSN agree with
// the root it names.
func checkPlacement(ep *EntryProof, i int, r *SignedRoot) error {
	if ep.Index < 0 || ep.Index >= r.Leaves {
		return fmt.Errorf("%w: entry %d index %d outside root seq %d", ErrProof, i, ep.Index, ep.Batch)
	}
	if ep.LSN != r.FirstLSN+uint64(ep.Index) {
		return fmt.Errorf("%w: entry %d LSN %d does not match index %d of root seq %d", ErrProof, i, ep.LSN, ep.Index, ep.Batch)
	}
	return nil
}

// verifyCaseProofV2 checks the head's signature, each referenced root
// (its signature and its inclusion in the head's tree) and each
// batch's multiproof over the entries it holds.
func verifyCaseProofV2(pub ed25519.PublicKey, p *CaseProof) error {
	headRoot, err := checkHead(pub, p.Head)
	if err != nil {
		return err
	}
	if len(p.Roots) == 0 || len(p.Batches) != len(p.Roots) {
		return fmt.Errorf("%w: %d roots with %d batch proofs", ErrProof, len(p.Roots), len(p.Batches))
	}
	for i := range p.Roots {
		r, b := &p.Roots[i], &p.Batches[i]
		if r.Seq == 0 || r.Seq > p.Head.Size || (i > 0 && r.Seq <= p.Roots[i-1].Seq) {
			return fmt.Errorf("%w: root seq %d out of order or outside the head's %d batches", ErrProof, r.Seq, p.Head.Size)
		}
		ch, _, err := checkRoot(pub, r)
		if err != nil {
			return err
		}
		if len(b.Inclusion) > maxPathLen {
			return fmt.Errorf("%w: root seq %d inclusion path too long", ErrProof, r.Seq)
		}
		path, err := decodeHashes(b.Inclusion)
		if err != nil {
			return fmt.Errorf("%w: root seq %d inclusion path: %v", ErrProof, r.Seq, err)
		}
		got, err := rootFromInclusion(r.Seq-1, p.Head.Size, leafHash(&ch), path)
		if err != nil || got != headRoot {
			return fmt.Errorf("%w: root seq %d does not prove into the head of size %d", ErrProof, r.Seq, p.Head.Size)
		}
	}

	// Entries ascend by LSN, so they visit the referenced batches in
	// order; each batch's leaves are checked against its root at once.
	var (
		prevLSN   uint64
		prevChain [32]byte
		ri        = -1
		idx       []int
		hashes    [][32]byte
	)
	flush := func() error {
		r := &p.Roots[ri]
		want, err := decodeHash(r.Root)
		if err != nil {
			return fmt.Errorf("%w: root seq %d: %v", ErrProof, r.Seq, err)
		}
		sibs, err := decodeHashes(p.Batches[ri].Siblings)
		if err != nil {
			return fmt.Errorf("%w: root seq %d multiproof: %v", ErrProof, r.Seq, err)
		}
		got, err := multiRoot(r.Leaves, idx, hashes, sibs)
		if err != nil || got != want {
			return fmt.Errorf("%w: entries do not prove into root seq %d", ErrProof, r.Seq)
		}
		idx, hashes = idx[:0], hashes[:0]
		return nil
	}
	dec := audit.NewEntryScanner(nil, audit.DecodeOptions{})
	for i := range p.Entries {
		ep := &p.Entries[i]
		e, err := caseEntry(dec, p, i, prevLSN)
		if err != nil {
			return err
		}
		if ri < 0 || ep.Batch != p.Roots[ri].Seq {
			if ri >= 0 {
				if err := flush(); err != nil {
					return err
				}
			}
			ri++
			if ri == len(p.Roots) || p.Roots[ri].Seq != ep.Batch {
				return fmt.Errorf("%w: entry %d references root seq %d, not the next one in the proof", ErrProof, i, ep.Batch)
			}
		}
		if err := checkPlacement(ep, i, &p.Roots[ri]); err != nil {
			return err
		}
		prev := prevChain
		if follows := i > 0 && ep.LSN == prevLSN+1; follows != (ep.PrevChain == "") {
			return fmt.Errorf("%w: entry %d must carry a prev chain exactly when it does not follow entry %d", ErrProof, i, i-1)
		} else if !follows {
			if prev, err = decodeHash(ep.PrevChain); err != nil {
				return fmt.Errorf("%w: entry %d prev chain: %v", ErrProof, i, err)
			}
		}
		if len(ep.Path) != 0 {
			return fmt.Errorf("%w: entry %d carries a version 1 path", ErrProof, i)
		}
		chain := audit.ChainNext(prev, e)
		idx = append(idx, ep.Index)
		hashes = append(hashes, leafHash(&chain))
		prevLSN, prevChain = ep.LSN, chain
	}
	if err := flush(); err != nil {
		return err
	}
	if ri != len(p.Roots)-1 {
		return fmt.Errorf("%w: root seq %d carries no entry of the case", ErrProof, p.Roots[ri+1].Seq)
	}
	return nil
}

// verifyCaseProofV1 checks a version 1 bundle: an unbroken signed root
// chain from the first referenced batch to the head, and a full path
// per entry.
func verifyCaseProofV1(pub ed25519.PublicKey, p *CaseProof) error {
	if err := VerifyRoots(pub, p.Roots); err != nil {
		return err
	}
	bySeq := map[uint64]*SignedRoot{}
	for i := range p.Roots {
		bySeq[p.Roots[i].Seq] = &p.Roots[i]
	}
	var prevLSN uint64
	var prevChainHex string
	dec := audit.NewEntryScanner(nil, audit.DecodeOptions{})
	for i := range p.Entries {
		ep := &p.Entries[i]
		e, err := caseEntry(dec, p, i, prevLSN)
		if err != nil {
			return err
		}
		r, ok := bySeq[ep.Batch]
		if !ok {
			return fmt.Errorf("%w: entry %d references missing root seq %d", ErrProof, i, ep.Batch)
		}
		if err := checkPlacement(ep, i, r); err != nil {
			return err
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

func decodeHashes(ss []string) ([][32]byte, error) {
	out := make([][32]byte, len(ss))
	for i, s := range ss {
		h, err := decodeHash(s)
		if err != nil {
			return nil, err
		}
		out[i] = h
	}
	return out, nil
}

func hexHashes(hs [][32]byte) []string {
	out := make([]string, len(hs))
	for i := range hs {
		out[i] = hex.EncodeToString(hs[i][:])
	}
	return out
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
