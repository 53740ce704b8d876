// Package ledger implements the tamper-evident audit ledger the paper
// assumes exists (§3.4 cites secure-logging work and moves on): a
// batched Merkle tree over the same canonical entry serializations
// that audit.SecureLog seals. Leaves accumulate into batches closed by
// size or by a wait timer; each batch's Merkle root is chained to its
// predecessor and ed25519-signed. The chain hashes of the sealed
// batches are in turn the leaves of an append-only RFC 6962 tree whose
// head is signed on demand, so a verdict ships with a proof of
// logarithmic size — entries → batch root by one multiproof, batch
// root → signed head by an inclusion path — and two heads are tied by
// an RFC 9162 consistency proof; a regulator checks both offline with
// nothing but the public key.
//
// Leaf identity is the WAL LSN: the server appends to the ledger under
// the same lock that assigns LSNs, so the leaf sequence is dense and
// the ledger rebuilds deterministically from WAL replay after a crash
// — the rebuilt roots and heads are byte-identical to an uninterrupted
// run's (ed25519 signatures are deterministic). Nothing wall-clock
// enters the signed material for the same reason.
//
// The per-leaf hash chain is audit.ChainNext — SecureLog's chain —
// which makes SecureLog a single-entry view of the same construction:
// SealedEntries() returns a slice audit.Verify accepts when the
// optional SealKey is set (the hospital HIS uses this; auditd leaves
// it off to keep per-entry HMACs out of the ingest hot path).
package ledger

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/audit"
)

// DefaultBatch is the batch size when Options.Batch is unset.
const DefaultBatch = 64

// ErrUnknownCase reports a proof request for a case with no leaves.
var ErrUnknownCase = errors.New("ledger: case has no recorded entries")

// Options configures a Ledger.
type Options struct {
	// Key signs batch roots (required).
	Key ed25519.PrivateKey
	// Batch closes a batch at this many leaves (default DefaultBatch;
	// 1 is the direct ledger — every entry its own signed root).
	Batch int
	// Wait, when positive, seals a partial batch this long after its
	// first leaf arrives, bounding how long an acknowledged entry can
	// stay unprovable. Zero means batches close on size or Cut only —
	// the deterministic mode crash-recovery comparisons rely on.
	Wait time.Duration
	// SealKey, when set, additionally computes SecureLog-compatible
	// per-leaf HMAC seals under the evolving key, so SealedEntries()
	// verifies with audit.Verify(SealKey, ...).
	SealKey []byte
	// OnSeal, when set, observes every sealed batch (metrics hook).
	// Called with the ledger lock held; it must not call back in.
	OnSeal func(root SignedRoot, dur time.Duration)
}

// leaf is one appended entry with its chain hash (and optional seal).
type leaf struct {
	entry audit.Entry
	lsn   uint64
	chain [32]byte
	seal  []byte
}

// sealedBatch is a closed batch: its leaves and its signed root.
type sealedBatch struct {
	root   SignedRoot
	leaves []leaf
}

// Ledger is the batched Merkle audit ledger. Safe for concurrent use.
type Ledger struct {
	mu   sync.Mutex
	opts Options
	pub  ed25519.PublicKey

	chain         [32]byte // live leaf-chain tip (open leaves included)
	hmacKey       []byte   // evolving seal key (nil = seals disabled)
	prevRootChain [32]byte // chain hash of the last sealed root

	// Scratch reused across appends and seals: the bytes each chain
	// step hashes and a batch's leaf hashes.
	scratch []byte
	hashes  [][32]byte

	batches []*sealedBatch // batches[i].root.Seq == i+1
	tree    batchTree      // over the batches' chain hashes, in Seq order
	head    SignedHead     // last signed tree head (Size 0 = none yet)
	open    []leaf
	lastLSN uint64
	byCase  map[string][]uint64 // case → leaf LSNs, ascending

	timer    *time.Timer
	timerGen uint64
	closed   bool

	sealedLeaves uint64
	forcedCuts   uint64
}

// New builds an empty ledger.
func New(opts Options) (*Ledger, error) {
	if len(opts.Key) != ed25519.PrivateKeySize {
		return nil, errors.New("ledger: ed25519 signing key required")
	}
	if opts.Batch <= 0 {
		opts.Batch = DefaultBatch
	}
	l := &Ledger{
		opts:          opts,
		pub:           opts.Key.Public().(ed25519.PublicKey),
		chain:         audit.ChainSeed(),
		prevRootChain: rootChainSeed(),
		byCase:        map[string][]uint64{},
	}
	if opts.SealKey != nil {
		l.hmacKey = append([]byte(nil), opts.SealKey...)
	}
	return l, nil
}

// PublicKey returns the root-signing public key.
func (l *Ledger) PublicKey() ed25519.PublicKey {
	return append(ed25519.PublicKey(nil), l.pub...)
}

// Append records entries as consecutive leaves starting at firstLSN
// (0 = continue from the last leaf). A gap or overlap is an error:
// leaf identity is the WAL LSN and the sequence must stay dense, or
// crash rebuilds would sign different trees than the original run.
func (l *Ledger) Append(entries []audit.Entry, firstLSN uint64) error {
	if len(entries) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("ledger: closed")
	}
	if firstLSN == 0 {
		firstLSN = l.lastLSN + 1
	}
	if firstLSN != l.lastLSN+1 {
		return fmt.Errorf("ledger: leaf sequence gap: append at LSN %d, want %d", firstLSN, l.lastLSN+1)
	}
	for i := range entries {
		wasEmpty := len(l.open) == 0
		l.open = append(l.open, l.chainLeafLocked(entries[i], firstLSN+uint64(i)))
		if len(l.open) >= l.opts.Batch {
			l.sealLocked()
		} else if wasEmpty && l.opts.Wait > 0 {
			l.armTimerLocked()
		}
	}
	return nil
}

// chainLeafLocked advances the leaf chain over e, records it as leaf
// lsn in the case index and returns the leaf.
func (l *Ledger) chainLeafLocked(e audit.Entry, lsn uint64) leaf {
	l.chain, l.scratch = audit.ChainStep(l.scratch, l.chain, e)
	lf := leaf{entry: e, lsn: lsn, chain: l.chain}
	if l.hmacKey != nil {
		lf.seal = audit.SealChain(l.hmacKey, l.chain[:])
		l.hmacKey = audit.EvolveKey(l.hmacKey)
	}
	l.byCase[e.Case] = append(l.byCase[e.Case], lsn)
	l.lastLSN = lsn
	return lf
}

// leafHashes appends the Merkle leaf hash of every leaf to dst.
func leafHashes(dst [][32]byte, leaves []leaf) [][32]byte {
	for i := range leaves {
		dst = append(dst, leafHash(&leaves[i].chain))
	}
	return dst
}

// armTimerLocked schedules a wait-ms cut for the batch that just
// opened. The generation counter voids the timer if the batch seals
// on size first.
func (l *Ledger) armTimerLocked() {
	gen := l.timerGen
	l.timer = time.AfterFunc(l.opts.Wait, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.closed || gen != l.timerGen || len(l.open) == 0 {
			return
		}
		l.sealLocked()
	})
}

// sealLocked closes the open batch: Merkle root, chain link, signature.
func (l *Ledger) sealLocked() {
	start := time.Now()
	// The batch keeps an exact-size copy; the open slice's array is
	// reused by the next batch.
	leaves := slices.Clone(l.open)
	l.open = l.open[:0]
	l.timerGen++
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	l.hashes = leafHashes(l.hashes[:0], leaves)
	root := merkleRoot(l.hashes)
	seq := uint64(len(l.batches)) + 1
	ch := rootChainHash(&l.prevRootChain, seq, leaves[0].lsn, len(leaves), &root)
	sr := SignedRoot{
		Seq:       seq,
		FirstLSN:  leaves[0].lsn,
		Leaves:    len(leaves),
		Root:      hex.EncodeToString(root[:]),
		PrevChain: hex.EncodeToString(l.prevRootChain[:]),
		ChainHash: hex.EncodeToString(ch[:]),
		Sig:       hex.EncodeToString(ed25519.Sign(l.opts.Key, ch[:])),
	}
	l.batches = append(l.batches, &sealedBatch{root: sr, leaves: leaves})
	l.tree.append(&ch)
	l.prevRootChain = ch
	l.sealedLeaves += uint64(len(leaves))
	if l.opts.OnSeal != nil {
		l.opts.OnSeal(sr, time.Since(start))
	}
}

// Cut seals the open batch, if any — shutdown and on-demand proofs.
func (l *Ledger) Cut() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.open) > 0 {
		l.sealLocked()
	}
}

// Close stops the wait timer and refuses further appends.
func (l *Ledger) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.timerGen++
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
}

// Head returns the newest signed root, if any batch has sealed.
func (l *Ledger) Head() (SignedRoot, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.batches) == 0 {
		return SignedRoot{}, false
	}
	return l.batches[len(l.batches)-1].root, true
}

// Roots returns the signed roots with Seq > since, oldest first.
func (l *Ledger) Roots(since uint64) []SignedRoot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rootsLocked(since)
}

func (l *Ledger) rootsLocked(since uint64) []SignedRoot {
	if since >= uint64(len(l.batches)) {
		return nil
	}
	out := make([]SignedRoot, 0, len(l.batches)-int(since))
	for _, b := range l.batches[since:] {
		out = append(out, b.root)
	}
	return out
}

// TreeHead returns the signed head over every sealed batch, the signed
// roots with Seq > since and, when 0 < since < the head's size, the
// RFC 9162 consistency proof from the tree of size since. All three are
// read under one lock, so the last root listed is the head's newest
// batch and a follower polling from since=head.Size misses no root
// sealed in between. ok is false before the first seal.
func (l *Ledger) TreeHead(since uint64) (head SignedHead, consistency []string, roots []SignedRoot, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.batches) == 0 {
		return SignedHead{}, nil, nil, false
	}
	head = l.headLocked()
	if since > 0 && since < head.Size {
		consistency = hexHashes(l.tree.consistency(since, head.Size))
	}
	return head, consistency, l.rootsLocked(since), true
}

// headLocked signs the tree head at the current size, once per size: a
// seal costs no signature, and ed25519 being deterministic, a crash
// rebuild signs the same head bytes.
func (l *Ledger) headLocked() SignedHead {
	if n := l.tree.size(); l.head.Size != n {
		root := l.tree.root(n)
		msg := headHash(n, &root)
		l.head = SignedHead{
			Size: n,
			Root: hex.EncodeToString(root[:]),
			Sig:  hex.EncodeToString(ed25519.Sign(l.opts.Key, msg[:])),
		}
	}
	return l.head
}

// LastLSN returns the LSN of the last appended leaf (sealed or open).
func (l *Ledger) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// LastSealedLSN returns the LSN of the last leaf inside a signed root.
func (l *Ledger) LastSealedLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSealedLSNLocked()
}

func (l *Ledger) lastSealedLSNLocked() uint64 {
	if len(l.batches) == 0 {
		return 0
	}
	b := l.batches[len(l.batches)-1]
	return b.root.FirstLSN + uint64(b.root.Leaves) - 1
}

// Stats returns sealed batch/leaf counts, open leaves, and forced cuts.
func (l *Ledger) Stats() (batches int, sealedLeaves uint64, open int, forcedCuts uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.batches), l.sealedLeaves, len(l.open), l.forcedCuts
}

// SealedEntries returns every leaf as a SecureLog-compatible sealed
// entry (seals are empty unless Options.SealKey was set). Open leaves
// are included: the chain covers them even before a root does.
func (l *Ledger) SealedEntries() []audit.SealedEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []audit.SealedEntry
	emit := func(lf leaf) {
		out = append(out, audit.SealedEntry{
			Entry: lf.entry,
			Chain: hex.EncodeToString(lf.chain[:]),
			Seal:  hex.EncodeToString(lf.seal),
		})
	}
	for _, b := range l.batches {
		for _, lf := range b.leaves {
			emit(lf)
		}
	}
	for _, lf := range l.open {
		emit(lf)
	}
	return out
}

// ProveCase builds the inclusion proof for every leaf of the case. If
// the case has leaves in the open batch, the batch is sealed first (a
// forced cut) so the proof covers everything recorded.
func (l *Ledger) ProveCase(caseID string) (*CaseProof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsns := l.byCase[caseID]
	if len(lsns) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCase, caseID)
	}
	if len(l.open) > 0 && lsns[len(lsns)-1] >= l.open[0].lsn {
		l.forcedCuts++
		l.sealLocked()
	}
	head := l.headLocked()
	p := &CaseProof{Case: caseID, Version: proofVersion, Head: &head, PublicKey: hex.EncodeToString(l.pub)}
	// LSNs ascend, so their batches do too: each referenced batch is
	// visited once, for the run of the case's leaves it holds.
	var idx []int
	for i := 0; i < len(lsns); {
		bi := l.batchForLocked(lsns[i])
		if bi < 0 {
			return nil, fmt.Errorf("ledger: no sealed batch covers LSN %d", lsns[i])
		}
		b := l.batches[bi]
		end := b.root.FirstLSN + uint64(b.root.Leaves)
		idx = idx[:0]
		for ; i < len(lsns) && lsns[i] < end; i++ {
			lsn := lsns[i]
			k := int(lsn - b.root.FirstLSN)
			raw, err := encodeEntryJSON(b.leaves[k].entry)
			if err != nil {
				return nil, err
			}
			ep := EntryProof{Entry: raw, LSN: lsn, Batch: b.root.Seq, Index: k}
			if n := len(p.Entries); n == 0 || p.Entries[n-1].LSN+1 != lsn {
				prev := l.prevChainLocked(bi, k)
				ep.PrevChain = hex.EncodeToString(prev[:])
			}
			p.Entries = append(p.Entries, ep)
			idx = append(idx, k)
		}
		p.Roots = append(p.Roots, b.root)
		p.Batches = append(p.Batches, BatchProof{
			Inclusion: hexHashes(l.tree.inclusion(uint64(bi), head.Size)),
			Siblings:  hexHashes(buildTree(leafHashes(nil, b.leaves)).multiproof(idx)),
		})
	}
	return p, nil
}

// prevChainLocked is the leaf chain hash before leaf k of batch bi.
func (l *Ledger) prevChainLocked(bi, k int) [32]byte {
	switch {
	case k > 0:
		return l.batches[bi].leaves[k-1].chain
	case bi > 0:
		before := l.batches[bi-1].leaves
		return before[len(before)-1].chain
	}
	return audit.ChainSeed()
}

// batchForLocked finds the sealed batch containing lsn (-1 if open or
// out of range).
func (l *Ledger) batchForLocked(lsn uint64) int {
	i := sort.Search(len(l.batches), func(i int) bool {
		return l.batches[i].root.FirstLSN > lsn
	}) - 1
	if i < 0 {
		return -1
	}
	b := l.batches[i]
	if lsn >= b.root.FirstLSN+uint64(b.root.Leaves) {
		return -1
	}
	return i
}

// encodeEntryJSON renders one entry in the JSONL wire form — the same
// bytes auditd ingests, so a proof bundle round-trips through the
// standard codec.
func encodeEntryJSON(e audit.Entry) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := audit.AppendJSONL(&buf, e); err != nil {
		return nil, err
	}
	return json.RawMessage(bytes.TrimRight(buf.Bytes(), "\n")), nil
}
