package ledger

// Merkle tree over leaf chain hashes, RFC 6962 style: domain-separated
// leaf and interior hashes (so an interior node can never be passed
// off as a leaf), odd nodes promoted unpaired. A batch of one — the
// direct ledger — degenerates to root == leafHash with an empty path.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Hash domain prefixes.
const (
	domainLeaf     = 0x00 // leafHash = H(0x00 || leaf chain hash)
	domainInterior = 0x01 // nodeHash = H(0x01 || left || right)
	domainRoot     = 0x02 // rootChainHash = H(0x02 || prev || seq || firstLSN || leaves || root)
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
// the paths of several leaves of a batch share one build.
type merkleTree [][][32]byte

func buildTree(leaves [][32]byte) merkleTree {
	t := merkleTree{leaves}
	for level := leaves; len(level) > 1; {
		level = foldLevel(make([][32]byte, 0, (len(level)+1)/2), level)
		t = append(t, level)
	}
	return t
}

// path returns the sibling path from leaf idx to the root. Left marks
// siblings that sit left of the running hash when folding.
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
