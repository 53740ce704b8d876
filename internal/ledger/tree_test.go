package ledger

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/audit"
)

// chainHashes returns n distinct stand-ins for batch chain hashes.
func chainHashes(n int, seed uint64) [][32]byte {
	out := make([][32]byte, n)
	var b [16]byte
	binary.BigEndian.PutUint64(b[:], seed)
	for i := range out {
		binary.BigEndian.PutUint64(b[8:], uint64(i))
		out[i] = sha256.Sum256(b[:])
	}
	return out
}

// refSplit is RFC 6962's k, computed without math/bits.
func refSplit(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// refMTH is RFC 6962 §2.1's recursive Merkle Tree Hash over data.
func refMTH(d [][32]byte) [32]byte {
	if len(d) == 1 {
		return leafHash(&d[0])
	}
	k := refSplit(len(d))
	l, r := refMTH(d[:k]), refMTH(d[k:])
	return nodeHash(&l, &r)
}

// refPath is RFC 9162 §2.1.3.1's PATH(m, D[n]).
func refPath(m int, d [][32]byte) [][32]byte {
	if len(d) <= 1 {
		return nil
	}
	k := refSplit(len(d))
	if m < k {
		return append(refPath(m, d[:k]), refMTH(d[k:]))
	}
	return append(refPath(m-k, d[k:]), refMTH(d[:k]))
}

// refSubproof is RFC 9162 §2.1.4.1's SUBPROOF(m, D[n], b).
func refSubproof(m int, d [][32]byte, b bool) [][32]byte {
	n := len(d)
	if m == n {
		if b {
			return nil
		}
		return [][32]byte{refMTH(d)}
	}
	k := refSplit(n)
	if m <= k {
		return append(refSubproof(m, d[:k], b), refMTH(d[k:]))
	}
	return append(refSubproof(m-k, d[k:], false), refMTH(d[:k]))
}

// TestBatchTreeIsRFC6962: the incremental tree's root equals the
// recursive MTH reference and the bottom-up fold of the batch trees,
// at every size and for every prefix.
func TestBatchTreeIsRFC6962(t *testing.T) {
	const max = 300
	d := chainHashes(max, 1)
	var tree batchTree
	for n := 1; n <= max; n++ {
		tree.append(&d[n-1])
		if tree.size() != uint64(n) {
			t.Fatalf("size %d after %d appends", tree.size(), n)
		}
		want := refMTH(d[:n])
		if got := tree.root(uint64(n)); got != want {
			t.Fatalf("n=%d: incremental root differs from MTH", n)
		}
		var leaves [][32]byte
		for i := range d[:n] {
			leaves = append(leaves, leafHash(&d[i]))
		}
		if got := merkleRoot(leaves); got != want {
			t.Fatalf("n=%d: foldLevel root differs from MTH", n)
		}
	}
	for m := 1; m <= max; m++ {
		if tree.root(uint64(m)) != refMTH(d[:m]) {
			t.Fatalf("prefix root of size %d changed after later appends", m)
		}
	}
}

func mutated(hs [][32]byte, i int) [][32]byte {
	out := slices.Clone(hs)
	out[i][0] ^= 0x80
	return out
}

// TestTreeProofs: for every m <= n <= 64 the inclusion and consistency
// proofs equal RFC 9162's reference definitions and verify, and fail
// under a mutated hash, size or index. A tree size is not bound into a
// root, so where a mutated size still reproduces the root the test
// requires the genuine tree of that size to have another root: the
// signed head, which binds size to root, then rejects the proof.
func TestTreeProofs(t *testing.T) {
	const max = 64
	d := chainHashes(max, 2)
	var tree batchTree
	for i := range d {
		tree.append(&d[i])
	}
	roots := make([][32]byte, max+1)
	for n := 1; n <= max; n++ {
		roots[n] = refMTH(d[:n])
	}
	for n := uint64(1); n <= max; n++ {
		root := roots[n]
		for m := uint64(0); m < n; m++ {
			leaf := leafHash(&d[m])
			path := tree.inclusion(m, n)
			if !slices.Equal(path, refPath(int(m), d[:n])) {
				t.Fatalf("inclusion(%d, %d) differs from PATH", m, n)
			}
			if got, err := rootFromInclusion(m, n, leaf, path); err != nil || got != root {
				t.Fatalf("inclusion(%d, %d) does not verify: %v", m, n, err)
			}
			for i := range path {
				if got, err := rootFromInclusion(m, n, leaf, mutated(path, i)); err == nil && got == root {
					t.Fatalf("inclusion(%d, %d) verifies with hash %d mutated", m, n, i)
				}
			}
			for _, mm := range []uint64{m - 1, m + 1} {
				if mm >= n {
					continue
				}
				if got, err := rootFromInclusion(mm, n, leaf, path); err == nil && got == root {
					t.Fatalf("inclusion(%d, %d) verifies at index %d", m, n, mm)
				}
			}
			for _, nn := range []uint64{n - 1, n + 1} {
				if nn == 0 || nn > max || m >= nn {
					continue
				}
				if got, err := rootFromInclusion(m, nn, leaf, path); err == nil && got == root && roots[nn] == root {
					t.Fatalf("inclusion(%d, %d) verifies against the genuine tree of size %d", m, n, nn)
				}
			}
		}
		for m := uint64(1); m <= n; m++ {
			var proof [][32]byte
			if m < n {
				proof = tree.consistency(m, n)
			}
			if !slices.Equal(proof, refSubproof(int(m), d[:n], true)) {
				t.Fatalf("consistency(%d, %d) differs from PROOF", m, n)
			}
			if err := checkConsistency(m, n, roots[m], root, proof); err != nil {
				t.Fatalf("consistency(%d, %d): %v", m, n, err)
			}
			for i := range proof {
				if checkConsistency(m, n, roots[m], root, mutated(proof, i)) == nil {
					t.Fatalf("consistency(%d, %d) verifies with hash %d mutated", m, n, i)
				}
			}
			if m < n && checkConsistency(m, n, roots[m], root, nil) == nil {
				t.Fatalf("consistency(%d, %d) verifies with an empty proof", m, n)
			}
			for _, mm := range []uint64{m - 1, m + 1} {
				if mm >= 1 && mm <= n && mm != m && checkConsistency(mm, n, roots[mm], root, proof) == nil {
					t.Fatalf("consistency(%d, %d) verifies from size %d", m, n, mm)
				}
			}
			for _, nn := range []uint64{n - 1, n + 1} {
				if nn >= m && nn <= max && nn != n && checkConsistency(m, nn, roots[m], roots[nn], proof) == nil {
					t.Fatalf("consistency(%d, %d) verifies to size %d", m, n, nn)
				}
			}
		}
	}
}

// TestTreeHeadConsistency follows a growing ledger: every head it
// signed is consistent with the final one under the served proof, and
// a head whose size or root was edited is refused.
func TestTreeHeadConsistency(t *testing.T) {
	l, err := New(Options{Key: testKey(t), Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := l.TreeHead(0); ok {
		t.Fatal("empty ledger has a tree head")
	}
	var heads []SignedHead
	for _, e := range mkEntries(20, "HT-1", "HT-2") {
		if err := l.Append([]audit.Entry{e}, 0); err != nil {
			t.Fatal(err)
		}
		h, _, _, _ := l.TreeHead(0)
		heads = append(heads, h)
	}
	pub := l.PublicKey()
	for _, old := range heads {
		cur, proof, roots, ok := l.TreeHead(old.Size)
		if !ok || cur.Size != 20 || uint64(len(roots)) != cur.Size-old.Size {
			t.Fatalf("TreeHead(%d): %+v with %d roots", old.Size, cur, len(roots))
		}
		if err := VerifyConsistency(pub, &old, &old, nil); err != nil {
			t.Fatalf("head of size %d: %v", old.Size, err)
		}
		if err := VerifyConsistency(pub, &old, &cur, proof); err != nil {
			t.Fatalf("consistency from %d: %v", old.Size, err)
		}
		edited := old
		edited.Size++
		if VerifyConsistency(pub, &edited, &cur, proof) == nil {
			t.Fatalf("consistency from an edited size %d verifies", edited.Size)
		}
		edited = old
		edited.Root = cur.Root
		if old.Size < cur.Size && VerifyConsistency(pub, &edited, &cur, proof) == nil {
			t.Fatalf("consistency from an edited root at size %d verifies", old.Size)
		}
	}
}

// TestTreeHeadFollowerMissesNoRoot polls TreeHead(since=head size)
// while another goroutine seals one batch per entry: every poll must
// list exactly the roots since the last head, ending at the new head's
// newest batch, so the follower collects the whole chain once.
func TestTreeHeadFollowerMissesNoRoot(t *testing.T) {
	l, err := New(Options{Key: testKey(t), Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		for _, e := range mkEntries(200, "HT-1") {
			if err := l.Append([]audit.Entry{e}, 0); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var got []SignedRoot
	poll := func() {
		head, _, roots, ok := l.TreeHead(uint64(len(got)))
		if !ok {
			return
		}
		if n := uint64(len(got) + len(roots)); n != head.Size {
			t.Fatalf("TreeHead(%d) listed %d roots under a head of size %d", len(got), len(roots), head.Size)
		}
		got = append(got, roots...)
	}
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		poll()
	}
	poll()
	if want := l.Roots(0); !slices.Equal(got, want) {
		t.Fatalf("follower collected %d roots, the ledger holds %d", len(got), len(want))
	}
}

// path is the version 1 per-entry sibling path from leaf idx to the
// root, kept as the reference FuzzMultiProof holds multiproofs to.
func (t merkleTree) path(idx int) []ProofStep {
	path := []ProofStep{}
	for _, level := range t[:len(t)-1] {
		if sib := idx ^ 1; sib < len(level) {
			path = append(path, ProofStep{
				Hash: hex.EncodeToString(level[sib][:]),
				Left: sib < idx,
			})
		}
		idx /= 2
	}
	return path
}

// FuzzMultiProof holds a batch multiproof to the per-entry paths it
// replaces: for any batch size and leaf subset it recomputes the same
// root every path does, uses only siblings some path uses, never more
// of them, and fails when a sibling is edited, dropped or added.
func FuzzMultiProof(f *testing.F) {
	f.Add(uint16(1), uint64(0), []byte{1})
	f.Add(uint16(64), uint64(1), []byte{0x81, 0x10})
	f.Add(uint16(63), uint64(2), []byte{0xff})
	f.Add(uint16(37), uint64(3), []byte{0x00})
	f.Fuzz(func(t *testing.T, size uint16, seed uint64, mask []byte) {
		n := int(size%512) + 1
		d := chainHashes(n, seed)
		leaves := make([][32]byte, n)
		for i := range d {
			leaves[i] = leafHash(&d[i])
		}
		var idx []int
		for i := 0; i < n && len(mask) > 0; i++ {
			if mask[(i/8)%len(mask)]&(1<<(i%8)) != 0 {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			idx = []int{int(seed % uint64(n))}
		}
		tree := buildTree(slices.Clone(leaves))
		root := merkleRoot(slices.Clone(leaves))
		sibs := tree.multiproof(idx)

		used := map[[32]byte]bool{}
		steps := 0
		for _, x := range idx {
			cur := leaves[x]
			for _, st := range tree.path(x) {
				h, err := decodeHash(st.Hash)
				if err != nil {
					t.Fatal(err)
				}
				used[h] = true
				steps++
				if st.Left {
					cur = nodeHash(&h, &cur)
				} else {
					cur = nodeHash(&cur, &h)
				}
			}
			if cur != root {
				t.Fatalf("per-entry path of leaf %d misses the root", x)
			}
		}
		if len(sibs) > steps {
			t.Fatalf("multiproof has %d siblings, the paths %d", len(sibs), steps)
		}
		for _, s := range sibs {
			if !used[s] {
				t.Fatal("multiproof sibling on no per-entry path")
			}
		}

		check := func(s [][32]byte) ([32]byte, error) {
			hs := make([][32]byte, len(idx))
			for i, x := range idx {
				hs[i] = leaves[x]
			}
			return multiRoot(n, slices.Clone(idx), hs, s)
		}
		if got, err := check(sibs); err != nil || got != root {
			t.Fatalf("multiproof of %d leaves of %d does not recompute the root: %v", len(idx), n, err)
		}
		if len(sibs) > 0 {
			if got, err := check(mutated(sibs, int(seed%uint64(len(sibs))))); err == nil && got == root {
				t.Fatal("multiproof verifies with an edited sibling")
			}
			if _, err := check(sibs[:len(sibs)-1]); err == nil {
				t.Fatal("multiproof verifies with a sibling dropped")
			}
		}
		if _, err := check(append(slices.Clone(sibs), root)); err == nil {
			t.Fatal("multiproof verifies with a sibling added")
		}
	})
}

// TestProofSizeLogarithmic is the deterministic guard on proof size:
// the same case, recorded early, proves into a ledger 16× as long with
// an inclusion path ⌈log₂ batches⌉ long, and the bundle grows by at
// most four path steps per referenced batch.
func TestProofSizeLogarithmic(t *testing.T) {
	const base = 20 * DefaultBatch
	// stepBytes bounds one inclusion path hash in the indented bundle:
	// 64 hex digits, quotes, comma, newline and indentation.
	const stepBytes = 80
	bundle := func(entries int) (*CaseProof, []byte) {
		l, err := New(Options{Key: testKey(t)})
		if err != nil {
			t.Fatal(err)
		}
		es := mkEntries(entries, "F-1", "F-2", "F-3", "F-4", "F-5")
		for i := 0; i < 200; i += 7 {
			es[i].Case = "X-1"
		}
		if err := l.Append(es, 0); err != nil {
			t.Fatal(err)
		}
		p, err := l.ProveCase("X-1")
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyCaseProof(l.PublicKey(), p); err != nil {
			t.Fatal(err)
		}
		for i, b := range p.Batches {
			if want := bits.Len64(p.Head.Size - 1); len(b.Inclusion) != want {
				t.Errorf("%d batches: inclusion path of seq %d has %d steps, want ⌈log₂⌉ = %d",
					p.Head.Size, p.Roots[i].Seq, len(b.Inclusion), want)
			}
		}
		raw, err := json.MarshalIndent(p, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return p, raw
	}
	p1, b1 := bundle(base)
	p16, b16 := bundle(16 * base)
	if p1.Head.Size != 20 || p16.Head.Size != 320 {
		t.Fatalf("heads cover %d and %d batches, want 20 and 320", p1.Head.Size, p16.Head.Size)
	}
	if len(p1.Roots) != len(p16.Roots) || len(p1.Roots) != 4 {
		t.Fatalf("case spans %d and %d batches, want 4", len(p1.Roots), len(p16.Roots))
	}
	if limit := len(b1) + 4*stepBytes*len(p1.Batches); len(b16) > limit {
		t.Errorf("bundle is %d bytes at 16× the ledger, %d at 1×: more than four path steps per batch (limit %d)",
			len(b16), len(b1), limit)
	}
}

// TestHeadSignedOncePerSize: a head is signed on demand and reused
// until a seal grows the tree; the signature covers headHash.
func TestHeadSignedOncePerSize(t *testing.T) {
	l, err := New(Options{Key: testKey(t), Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(mkEntries(4, "HT-1"), 0); err != nil {
		t.Fatal(err)
	}
	h1, _, _, _ := l.TreeHead(0)
	if l.head != h1 {
		t.Fatal("head not cached")
	}
	root, _ := decodeHash(h1.Root)
	msg := headHash(h1.Size, &root)
	sig, _ := hex.DecodeString(h1.Sig)
	if !ed25519.Verify(l.PublicKey(), msg[:], sig) {
		t.Fatal("head signature does not cover H(0x03 || size || root)")
	}
	if err := l.Append(mkEntries(2, "HT-1"), 0); err != nil {
		t.Fatal(err)
	}
	h2, proof, _, _ := l.TreeHead(h1.Size)
	if h2.Size != 3 || h2 == h1 || len(proof) == 0 {
		t.Fatalf("head after a seal: %+v, proof %d hashes", h2, len(proof))
	}
}
