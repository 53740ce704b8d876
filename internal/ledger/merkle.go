package ledger

// Merkle tree over leaf chain hashes, RFC 6962 style: domain-separated
// leaf and interior hashes (so an interior node can never be passed
// off as a leaf), odd nodes promoted unpaired. A batch of one — the
// direct ledger — degenerates to root == leafHash with an empty
// multiproof.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"slices"
)

// Hash domain prefixes.
const (
	domainLeaf     = 0x00 // leafHash = H(0x00 || leaf chain hash)
	domainInterior = 0x01 // nodeHash = H(0x01 || left || right)
	domainRoot     = 0x02 // rootChainHash = H(0x02 || prev || seq || firstLSN || leaves || root)
	domainHead     = 0x03 // headHash = H(0x03 || size || batch tree root)
)

// leafHash wraps a leaf's audit chain hash into the tree's leaf domain.
func leafHash(chain *[32]byte) [32]byte {
	var b [1 + 32]byte
	b[0] = domainLeaf
	copy(b[1:], chain[:])
	return sha256.Sum256(b[:])
}

// nodeHash combines two child hashes into their parent.
func nodeHash(left, right *[32]byte) [32]byte {
	var b [1 + 2*32]byte
	b[0] = domainInterior
	copy(b[1:], left[:])
	copy(b[1+32:], right[:])
	return sha256.Sum256(b[:])
}

// rootChainSeed anchors the signed-root chain, like audit.ChainSeed
// anchors the leaf chain.
func rootChainSeed() [32]byte {
	return sha256.Sum256([]byte("purpose-control-ledger-root-v1"))
}

// rootChainHash binds a batch root to its predecessor and position:
// the bytes each signature actually covers. Everything in it is
// deterministic, so a crash rebuild re-signs byte-identical material.
func rootChainHash(prev *[32]byte, seq, firstLSN uint64, leaves int, root *[32]byte) [32]byte {
	var b [1 + 32 + 3*8 + 32]byte
	b[0] = domainRoot
	copy(b[1:], prev[:])
	binary.BigEndian.PutUint64(b[33:], seq)
	binary.BigEndian.PutUint64(b[41:], firstLSN)
	binary.BigEndian.PutUint64(b[49:], uint64(leaves))
	copy(b[57:], root[:])
	return sha256.Sum256(b[:])
}

// foldLevel appends the parent level of level to dst. dst may alias
// level: parent i is written only after children 2i and 2i+1 are read.
func foldLevel(dst, level [][32]byte) [][32]byte {
	for i := 0; i < len(level); i += 2 {
		if i+1 < len(level) {
			dst = append(dst, nodeHash(&level[i], &level[i+1]))
		} else {
			dst = append(dst, level[i])
		}
	}
	return dst
}

// merkleRoot folds leaf hashes into the batch root, in place: leaves
// is clobbered.
func merkleRoot(leaves [][32]byte) [32]byte {
	for len(leaves) > 1 {
		leaves = foldLevel(leaves[:0], leaves)
	}
	return leaves[0]
}

// merkleTree keeps every level of one batch's tree, leaves first, so
// the siblings of several leaves of a batch come from one build.
type merkleTree [][][32]byte

func buildTree(leaves [][32]byte) merkleTree {
	t := merkleTree{leaves}
	for level := leaves; len(level) > 1; {
		level = foldLevel(make([][32]byte, 0, (len(level)+1)/2), level)
		t = append(t, level)
	}
	return t
}

// multiproof returns the sibling hashes that, with the leaves at idx
// (ascending, distinct), recompute the root: level by level from the
// leaves, left to right, every sibling that is neither a known leaf
// nor derived from known leaves. A promoted odd node needs none. One
// multiproof replaces the per-leaf paths of a case's leaves in a batch,
// which repeat every sibling shared near the root.
func (t merkleTree) multiproof(idx []int) [][32]byte {
	var out [][32]byte
	cur := slices.Clone(idx)
	for _, level := range t[:len(t)-1] {
		next := cur[:0]
		for i := 0; i < len(cur); i++ {
			x := cur[i]
			switch {
			case x%2 == 0 && i+1 < len(cur) && cur[i+1] == x+1:
				i++ // both children known
			case x^1 < len(level):
				out = append(out, level[x^1])
			}
			next = append(next, x/2)
		}
		cur = next
	}
	return out
}

// multiRoot recomputes the root of an n-leaf batch from the leaf
// hashes at idx (ascending, distinct, below n) and a multiproof,
// consuming its siblings in the order multiproof emits them. idx and
// hashes are clobbered.
func multiRoot(n int, idx []int, hashes, siblings [][32]byte) ([32]byte, error) {
	if len(idx) == 0 || len(idx) != len(hashes) {
		return [32]byte{}, errors.New("multiproof without leaves")
	}
	next := func() (*[32]byte, error) {
		if len(siblings) == 0 {
			return nil, errors.New("multiproof too short")
		}
		s := &siblings[0]
		siblings = siblings[1:]
		return s, nil
	}
	for size := n; size > 1; size = (size + 1) / 2 {
		j := 0
		for i := 0; i < len(idx); i++ {
			x, h := idx[i], hashes[i]
			switch {
			case x%2 == 0 && i+1 < len(idx) && idx[i+1] == x+1:
				h = nodeHash(&h, &hashes[i+1])
				i++
			case x%2 == 0 && x+1 < size:
				s, err := next()
				if err != nil {
					return h, err
				}
				h = nodeHash(&h, s)
			case x%2 == 1:
				s, err := next()
				if err != nil {
					return h, err
				}
				h = nodeHash(s, &h)
			}
			idx[j], hashes[j] = x/2, h
			j++
		}
		idx, hashes = idx[:j], hashes[:j]
	}
	if len(siblings) != 0 {
		return hashes[0], errors.New("multiproof too long")
	}
	return hashes[0], nil
}
