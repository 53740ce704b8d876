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
	"math"
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

// leaf is one appended entry: its chain hash, where the canonical
// bytes that hash covers sit in the arena, and the LSN of the previous
// leaf of the same case (0 for a case's first leaf), which links each
// case's leaves into a list the case index walks. It holds no pointer,
// so the leaf log costs the garbage collector nothing to mark however
// much history it keeps. Leaf LSNs are dense from 1, so leaf i is LSN
// i+1, and at most maxLeaves.
type leaf struct {
	chain      [32]byte
	chunk, off uint32 // arena chunk and offset of the canonical bytes
	n          uint32 // their length
	prev       uint32 // LSN of the case's previous leaf; 0 if none
}

// maxLeaves is the most leaves a ledger holds: leaf LSNs are stored in
// 32 bits.
const maxLeaves = math.MaxUint32

// leafChunk is the leaf log's unit of growth: a chunk, once allocated,
// is never copied, so appending costs the same at any ledger size.
const leafChunk = 1024

// leafLog is the ledger's append-only leaf sequence.
type leafLog struct {
	chunks []*[leafChunk]leaf
	n      int
}

func (g *leafLog) append(lf leaf) {
	if g.n == len(g.chunks)*leafChunk {
		g.chunks = append(g.chunks, new([leafChunk]leaf))
	}
	g.chunks[g.n/leafChunk][g.n%leafChunk] = lf
	g.n++
}

func (g *leafLog) at(i int) *leaf { return &g.chunks[i/leafChunk][i%leafChunk] }

// arenaChunk is the canonical-bytes arena's unit of growth; an entry
// larger than it gets a chunk of its own.
const arenaChunk = 64 << 10

// arena holds the leaves' canonical bytes. Chunks only grow within
// their capacity, so bytes once written never move.
type arena struct {
	chunks [][]byte
}

// add copies b into the arena and returns where it landed.
func (a *arena) add(b []byte) (chunk, off uint32) {
	last := len(a.chunks) - 1
	if last < 0 || len(a.chunks[last])+len(b) > cap(a.chunks[last]) {
		a.chunks = append(a.chunks, make([]byte, 0, max(arenaChunk, len(b))))
		last++
	}
	off = uint32(len(a.chunks[last]))
	a.chunks[last] = append(a.chunks[last], b...)
	return uint32(last), off
}

func (a *arena) bytes(lf *leaf) []byte { return a.chunks[lf.chunk][lf.off : lf.off+lf.n] }

// Ledger is the batched Merkle audit ledger. Safe for concurrent use.
type Ledger struct {
	mu   sync.Mutex
	opts Options
	pub  ed25519.PublicKey

	chain         [32]byte // live leaf-chain tip (open leaves included)
	hmacKey       []byte   // evolving seal key (nil = seals disabled)
	prevRootChain [32]byte // chain hash of the last sealed root

	// Scratch reused across appends and seals: Append's rendering of
	// its entries, the bytes each chain step hashes and a batch's leaf
	// hashes.
	render  audit.CanonicalBatch
	scratch []byte
	hashes  [][32]byte

	// leaves holds every leaf, sealed or open; canon their canonical
	// bytes and seals their HMAC seals (only with Options.SealKey).
	leaves leafLog
	canon  arena
	seals  [][32]byte
	// batches[i] is the signed root of batch Seq i+1, which covers the
	// leaves of LSNs FirstLSN..FirstLSN+Leaves-1; the leaves past the
	// last batch are the open batch.
	batches []SignedRoot
	tree    batchTree  // over the batches' chain hashes, in Seq order
	head    SignedHead // last signed tree head (Size 0 = none yet)
	// byCase maps a case to its index in caseLast, which holds the LSN
	// of each case's last leaf; the leaves' prev links lead from there
	// through the rest of the case.
	byCase   map[string]int32
	caseLast []uint32

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
		byCase:        map[string]int32{},
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

// Append renders the entries in canonical form and records them as
// AppendCanonical does.
func (l *Ledger) Append(entries []audit.Entry, firstLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.render.Render(entries)
	return l.appendLocked(&l.render, firstLSN)
}

// AppendCanonical records the batch's entries as consecutive leaves
// starting at firstLSN (0 = continue from the last leaf), keeping
// their canonical bytes as they are. A gap or overlap is an error:
// leaf identity is the WAL LSN and the sequence must stay dense, or
// crash rebuilds would sign different trees than the original run.
func (l *Ledger) AppendCanonical(b *audit.CanonicalBatch, firstLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(b, firstLSN)
}

func (l *Ledger) appendLocked(b *audit.CanonicalBatch, firstLSN uint64) error {
	if b.Len() == 0 {
		return nil
	}
	if l.closed {
		return errors.New("ledger: closed")
	}
	last := l.lastLSNLocked()
	if firstLSN == 0 {
		firstLSN = last + 1
	}
	if firstLSN != last+1 {
		return fmt.Errorf("ledger: leaf sequence gap: append at LSN %d, want %d", firstLSN, last+1)
	}
	if uint64(b.Len()) > maxLeaves-last {
		return fmt.Errorf("ledger: full: %d leaves past LSN %d exceed %d", b.Len(), last, uint64(maxLeaves))
	}
	for i := 0; i < b.Len(); i++ {
		wasEmpty := l.openLocked() == 0
		l.leafLocked(b.At(i))
		if l.openLocked() >= l.opts.Batch {
			l.sealLocked()
		} else if wasEmpty && l.opts.Wait > 0 {
			l.armTimerLocked()
		}
	}
	return nil
}

// leafLocked is the one per-leaf step, shared by appends and
// LoadState: it advances the leaf chain over canon, an entry's
// canonical bytes whose case field is caseID, copies canon into the
// arena and appends the leaf as its case's last. With Options.SealKey
// the leaf's seal is computed and the key evolved.
func (l *Ledger) leafLocked(canon, caseID []byte) {
	l.chain, l.scratch = audit.ChainCanonical(l.scratch, l.chain, canon)
	id, ok := l.byCase[string(caseID)]
	if !ok {
		id = int32(len(l.caseLast))
		l.byCase[string(caseID)] = id
		l.caseLast = append(l.caseLast, 0)
	}
	chunk, off := l.canon.add(canon)
	l.leaves.append(leaf{chain: l.chain, chunk: chunk, off: off, n: uint32(len(canon)), prev: l.caseLast[id]})
	l.caseLast[id] = uint32(l.leaves.n)
	if l.hmacKey != nil {
		l.seals = append(l.seals, [32]byte(audit.SealChain(l.hmacKey, l.chain[:])))
		l.hmacKey = audit.EvolveKey(l.hmacKey)
	}
}

// caseLSNsLocked returns case c's leaf LSNs, ascending (nil if none).
func (l *Ledger) caseLSNsLocked(c string) []uint64 {
	id, ok := l.byCase[c]
	if !ok {
		return nil
	}
	n := 0
	for lsn := l.caseLast[id]; lsn != 0; lsn = l.leaves.at(int(lsn) - 1).prev {
		n++
	}
	lsns := make([]uint64, n)
	for lsn := l.caseLast[id]; lsn != 0; lsn = l.leaves.at(int(lsn) - 1).prev {
		n--
		lsns[n] = uint64(lsn)
	}
	return lsns
}

// lastLSNLocked is the LSN of the last leaf: leaf LSNs are dense from 1.
func (l *Ledger) lastLSNLocked() uint64 { return uint64(l.leaves.n) }

// openLocked counts the leaves appended but not yet sealed.
func (l *Ledger) openLocked() int { return l.leaves.n - int(l.sealedLeaves) }

// entryLocked rebuilds leaf i's entry from its canonical bytes.
func (l *Ledger) entryLocked(i int) (audit.Entry, error) {
	return audit.ParseCanonicalEntry(l.canon.bytes(l.leaves.at(i)))
}

// entryJSONLocked renders leaf i's entry in the JSONL wire form.
func (l *Ledger) entryJSONLocked(i int) (json.RawMessage, error) {
	e, err := l.entryLocked(i)
	if err != nil {
		return nil, err
	}
	return encodeEntryJSON(e)
}

// leafHashes appends the Merkle leaf hash of leaves [from, to) to dst.
func (l *Ledger) leafHashes(dst [][32]byte, from, to int) [][32]byte {
	for i := from; i < to; i++ {
		dst = append(dst, leafHash(&l.leaves.at(i).chain))
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
		if l.closed || gen != l.timerGen || l.openLocked() == 0 {
			return
		}
		l.sealLocked()
	})
}

// sealLocked closes the open batch: Merkle root, chain link, signature.
// The batch is the index range of its leaves; nothing is copied.
func (l *Ledger) sealLocked() {
	start := time.Now()
	first, n := int(l.sealedLeaves), l.openLocked()
	l.timerGen++
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	l.hashes = l.leafHashes(l.hashes[:0], first, first+n)
	root := merkleRoot(l.hashes)
	seq := uint64(len(l.batches)) + 1
	firstLSN := uint64(first) + 1
	ch := rootChainHash(&l.prevRootChain, seq, firstLSN, n, &root)
	// The four hex fields are rendered as one string and sliced out of
	// it: one allocation per batch instead of four.
	var raw [3*32 + ed25519.SignatureSize]byte
	copy(raw[:], root[:])
	copy(raw[32:], l.prevRootChain[:])
	copy(raw[64:], ch[:])
	copy(raw[96:], ed25519.Sign(l.opts.Key, ch[:]))
	h := hex.EncodeToString(raw[:])
	sr := SignedRoot{
		Seq:       seq,
		FirstLSN:  firstLSN,
		Leaves:    n,
		Root:      h[:64],
		PrevChain: h[64:128],
		ChainHash: h[128:192],
		Sig:       h[192:],
	}
	l.batches = append(l.batches, sr)
	l.tree.append(&ch)
	l.prevRootChain = ch
	l.sealedLeaves += uint64(n)
	if l.opts.OnSeal != nil {
		l.opts.OnSeal(sr, time.Since(start))
	}
}

// Cut seals the open batch, if any — shutdown and on-demand proofs.
func (l *Ledger) Cut() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.openLocked() > 0 {
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
	return l.batches[len(l.batches)-1], true
}

// TreeView is one consistent read of the ledger for a root follower
// (the GET /v1/roots body, less the public key).
type TreeView struct {
	Batches int    `json:"batches"`
	Leaves  uint64 `json:"leaves"` // entries covered by sealed batches
	Open    int    `json:"open"`   // entries appended but not yet sealed
	// Head is the signed tree head over every sealed batch (nil before
	// the first seal); the last root listed is its newest batch.
	Head *SignedHead `json:"head,omitempty"`
	// Consistency proves Head extends the tree of size since (RFC
	// 9162), for 0 < since < Head.Size.
	Consistency []string     `json:"consistency,omitempty"`
	Roots       []SignedRoot `json:"roots"`
}

// TreeHead reads, under one lock, the counts, the signed head over
// every sealed batch, the roots with Seq > since and, when 0 < since <
// head size, the RFC 9162 consistency proof from the tree of size
// since: Batches is the head's size, the last root listed is its newest
// batch, and a follower polling from since=head.Size misses no root.
func (l *Ledger) TreeHead(since uint64) TreeView {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := TreeView{Batches: len(l.batches), Leaves: l.sealedLeaves, Open: l.openLocked()}
	if len(l.batches) == 0 {
		return v
	}
	head := l.headLocked()
	v.Head = &head
	if since > 0 && since < head.Size {
		v.Consistency = hexHashes(l.tree.consistency(since, head.Size))
	}
	v.Roots = append(v.Roots, l.batches[min(since, head.Size):]...)
	return v
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
	return l.lastLSNLocked()
}

// LastSealedLSN returns the LSN of the last leaf inside a signed root.
func (l *Ledger) LastSealedLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealedLeaves
}

// Stats returns sealed batch/leaf counts, open leaves, and forced cuts.
func (l *Ledger) Stats() (batches int, sealedLeaves uint64, open int, forcedCuts uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.batches), l.sealedLeaves, l.openLocked(), l.forcedCuts
}

// SealedEntries returns every leaf as a SecureLog-compatible sealed
// entry (seals are empty unless Options.SealKey was set), its entry
// rebuilt from the canonical bytes, so in UTC. Open leaves are
// included: the chain covers them even before a root does.
func (l *Ledger) SealedEntries() []audit.SealedEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]audit.SealedEntry, l.leaves.n)
	for i := range out {
		// The arena holds only canonical bytes: AppendCanonicalEntry's,
		// or checkpointed ones LoadState checked to be exactly such.
		e, err := l.entryLocked(i)
		if err != nil {
			panic(fmt.Sprintf("ledger: leaf %d: %v", i, err))
		}
		out[i] = audit.SealedEntry{Entry: e, Chain: hex.EncodeToString(l.leaves.at(i).chain[:])}
		if l.seals != nil {
			out[i].Seal = hex.EncodeToString(l.seals[i][:])
		}
	}
	return out
}

// ProveCase builds the inclusion proof for every leaf of the case. If
// the case has leaves in the open batch, the batch is sealed first (a
// forced cut) so the proof covers everything recorded. Entries render
// from their canonical bytes, so their times are in UTC.
func (l *Ledger) ProveCase(caseID string) (*CaseProof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsns := l.caseLSNsLocked(caseID)
	if len(lsns) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCase, caseID)
	}
	if lsns[len(lsns)-1] > l.sealedLeaves {
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
		first := int(b.FirstLSN) - 1 // leaf index of the batch's first leaf
		idx = idx[:0]
		for ; i < len(lsns) && lsns[i] < b.FirstLSN+uint64(b.Leaves); i++ {
			lsn := lsns[i]
			k := int(lsn - b.FirstLSN)
			raw, err := l.entryJSONLocked(first + k)
			if err != nil {
				return nil, err
			}
			ep := EntryProof{Entry: raw, LSN: lsn, Batch: b.Seq, Index: k}
			if n := len(p.Entries); n == 0 || p.Entries[n-1].LSN+1 != lsn {
				prev := audit.ChainSeed()
				if first+k > 0 {
					prev = l.leaves.at(first + k - 1).chain
				}
				ep.PrevChain = hex.EncodeToString(prev[:])
			}
			p.Entries = append(p.Entries, ep)
			idx = append(idx, k)
		}
		p.Roots = append(p.Roots, b)
		p.Batches = append(p.Batches, BatchProof{
			Inclusion: hexHashes(l.tree.inclusion(uint64(bi), head.Size)),
			Siblings:  hexHashes(buildTree(l.leafHashes(nil, first, first+b.Leaves)).multiproof(idx)),
		})
	}
	return p, nil
}

// batchForLocked finds the sealed batch containing lsn (-1 if open or
// out of range).
func (l *Ledger) batchForLocked(lsn uint64) int {
	i := sort.Search(len(l.batches), func(i int) bool {
		return l.batches[i].FirstLSN > lsn
	}) - 1
	if i < 0 {
		return -1
	}
	b := l.batches[i]
	if lsn >= b.FirstLSN+uint64(b.Leaves) {
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
