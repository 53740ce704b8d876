package ledger

// The batch tree: an append-only RFC 6962 Merkle tree whose leaves are
// the batches' root-chain hashes, in Seq order. One signed tree head
// then commits to every batch, and a batch proves into it with an
// O(log batches) inclusion path; two heads are tied together by an
// RFC 9162 consistency proof. Leaf and interior hashes use the same
// domains as the per-batch trees, and the bottom-up fold with odd
// nodes promoted (foldLevel) computes exactly RFC 6962's MTH.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// headHash is the message a tree head's signature covers.
func headHash(size uint64, root *[32]byte) [32]byte {
	var b [1 + 8 + 32]byte
	b[0] = domainHead
	binary.BigEndian.PutUint64(b[1:], size)
	copy(b[9:], root[:])
	return sha256.Sum256(b[:])
}

// batchTree keeps every complete subtree of the batch tree:
// levels[k][i] is the hash over leaves [i·2^k, (i+1)·2^k). Appending a
// leaf completes at most one subtree per level, so a seal costs one
// leaf hash plus the parents it completes (one on average).
type batchTree struct {
	levels [][][32]byte
}

// append adds the leaf for one batch chain hash.
func (t *batchTree) append(chain *[32]byte) {
	h := leafHash(chain)
	for k := 0; ; k++ {
		if k == len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		t.levels[k] = append(t.levels[k], h)
		n := len(t.levels[k])
		if n%2 == 1 {
			return
		}
		h = nodeHash(&t.levels[k][n-2], &t.levels[k][n-1])
	}
}

// size is the number of leaves (sealed batches).
func (t *batchTree) size() uint64 {
	if len(t.levels) == 0 {
		return 0
	}
	return uint64(len(t.levels[0]))
}

// split is RFC 6962's k: the largest power of two below n (n > 1).
func split(n uint64) uint64 {
	return 1 << (bits.Len64(n-1) - 1)
}

// hash returns MTH over leaves [lo, hi). Only ranges RFC 6962's
// recursion produces are asked for: a power-of-two range starts at a
// multiple of its length, so it is one stored complete subtree, and any
// other range splits into such a left part and a shorter right part.
func (t *batchTree) hash(lo, hi uint64) [32]byte {
	n := hi - lo
	if n&(n-1) == 0 {
		k := bits.TrailingZeros64(n)
		return t.levels[k][lo>>k]
	}
	k := split(n)
	l, r := t.hash(lo, lo+k), t.hash(lo+k, hi)
	return nodeHash(&l, &r)
}

// root is MTH over the first n leaves (0 < n <= size).
func (t *batchTree) root(n uint64) [32]byte {
	return t.hash(0, n)
}

// inclusion returns RFC 9162 PATH(m, D[0:n]): the sibling hashes from
// leaf m up to the root of the tree of size n, leaf end first.
func (t *batchTree) inclusion(m, n uint64) [][32]byte {
	return t.path(m, 0, n, nil)
}

func (t *batchTree) path(m, lo, hi uint64, dst [][32]byte) [][32]byte {
	if hi-lo <= 1 {
		return dst
	}
	k := split(hi - lo)
	if m < lo+k {
		dst = t.path(m, lo, lo+k, dst)
		return append(dst, t.hash(lo+k, hi))
	}
	dst = t.path(m, lo+k, hi, dst)
	return append(dst, t.hash(lo, lo+k))
}

// consistency returns RFC 9162 PROOF(m, D[0:n]) for 0 < m < n: the
// hashes that show the tree of size m is a prefix of the tree of size n.
func (t *batchTree) consistency(m, n uint64) [][32]byte {
	return t.subproof(m, 0, n, true, nil)
}

func (t *batchTree) subproof(m, lo, hi uint64, complete bool, dst [][32]byte) [][32]byte {
	n := hi - lo
	if m == n {
		if complete {
			return dst
		}
		return append(dst, t.hash(lo, hi))
	}
	k := split(n)
	if m <= k {
		dst = t.subproof(m, lo, lo+k, complete, dst)
		return append(dst, t.hash(lo+k, hi))
	}
	dst = t.subproof(m-k, lo+k, hi, false, dst)
	return append(dst, t.hash(lo, lo+k))
}

// rootFromInclusion recomputes the root of a tree of size n from leaf
// hash leaf at index m and its inclusion path (RFC 9162 §2.1.3.2).
func rootFromInclusion(m, n uint64, leaf [32]byte, path [][32]byte) ([32]byte, error) {
	if m >= n {
		return leaf, fmt.Errorf("leaf index %d outside tree size %d", m, n)
	}
	fn, sn, r := m, n-1, leaf
	for i := range path {
		if sn == 0 {
			return r, fmt.Errorf("inclusion path longer than tree size %d allows", n)
		}
		if fn&1 == 1 || fn == sn {
			r = nodeHash(&path[i], &r)
			for fn&1 == 0 && fn != 0 {
				fn >>= 1
				sn >>= 1
			}
		} else {
			r = nodeHash(&r, &path[i])
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 {
		return r, fmt.Errorf("inclusion path shorter than tree size %d needs", n)
	}
	return r, nil
}

// checkConsistency verifies an RFC 9162 consistency proof (§2.1.4.2)
// that the tree of size m with root oldRoot is a prefix of the tree of
// size n with root newRoot.
func checkConsistency(m, n uint64, oldRoot, newRoot [32]byte, proof [][32]byte) error {
	switch {
	case m == 0 || m > n:
		return fmt.Errorf("no consistency between tree sizes %d and %d", m, n)
	case m == n:
		if len(proof) != 0 || oldRoot != newRoot {
			return fmt.Errorf("equal tree sizes %d need an empty proof and equal roots", m)
		}
		return nil
	case len(proof) == 0:
		return fmt.Errorf("empty consistency proof from %d to %d", m, n)
	}
	if m&(m-1) == 0 {
		proof = append([][32]byte{oldRoot}, proof...)
	}
	fn, sn := m-1, n-1
	for fn&1 == 1 {
		fn >>= 1
		sn >>= 1
	}
	fr, sr := proof[0], proof[0]
	for i := 1; i < len(proof); i++ {
		c := &proof[i]
		if sn == 0 {
			return fmt.Errorf("consistency proof from %d to %d too long", m, n)
		}
		if fn&1 == 1 || fn == sn {
			fr = nodeHash(c, &fr)
			sr = nodeHash(c, &sr)
			for fn&1 == 0 && fn != 0 {
				fn >>= 1
				sn >>= 1
			}
		} else {
			sr = nodeHash(&sr, c)
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 || fr != oldRoot || sr != newRoot {
		return fmt.Errorf("consistency proof from %d to %d does not match the roots", m, n)
	}
	return nil
}
