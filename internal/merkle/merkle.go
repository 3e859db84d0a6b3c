// Package merkle implements a binary Merkle hash tree with inclusion
// proofs.
//
// The content provider signs one root over the licenses a batch call
// issues to one pseudonym, and every license carries its path to that
// root (package license): one signature vouches for the whole call.
//
// Leaves are domain-separated from interior nodes (0x00 / 0x01 prefixes)
// to prevent second-preimage splicing attacks.
package merkle

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
)

// HashLen is the node hash size.
const HashLen = sha256.Size

var (
	leafPrefix = []byte{0x00}
	nodePrefix = []byte{0x01}
)

// LeafHash computes the domain-separated hash of a leaf value.
func LeafHash(data []byte) [HashLen]byte {
	h := sha256.New()
	h.Write(leafPrefix)
	h.Write(data)
	var out [HashLen]byte
	copy(out[:], h.Sum(nil))
	return out
}

func nodeHash(left, right [HashLen]byte) [HashLen]byte {
	h := sha256.New()
	h.Write(nodePrefix)
	h.Write(left[:])
	h.Write(right[:])
	var out [HashLen]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Tree is an immutable Merkle tree over a leaf set.
type Tree struct {
	levels [][][HashLen]byte // levels[0] = leaf hashes, last = root
	leaves [][]byte          // sorted copies of original leaf data
	index  map[[HashLen]byte]int
}

// Build constructs a tree over the given leaves. Leaves are
// deduplicated and sorted so that the root is a canonical digest of the
// *set*, independent of insertion order. An empty set has a defined root
// (hash of the empty string, domain-separated).
func Build(leaves [][]byte) *Tree {
	// Sort + dedupe copies.
	cp := make([][]byte, 0, len(leaves))
	for _, l := range leaves {
		cp = append(cp, append([]byte(nil), l...))
	}
	sort.Slice(cp, func(i, j int) bool { return bytes.Compare(cp[i], cp[j]) < 0 })
	dedup := cp[:0]
	for i, l := range cp {
		if i == 0 || !bytes.Equal(cp[i-1], l) {
			dedup = append(dedup, l)
		}
	}
	cp = dedup

	t := &Tree{leaves: cp, index: make(map[[HashLen]byte]int, len(cp))}
	level := make([][HashLen]byte, len(cp))
	for i, l := range cp {
		level[i] = LeafHash(l)
		t.index[level[i]] = i
	}
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([][HashLen]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				// Odd node is promoted unchanged (Bitcoin-style duplication
				// invites CVE-2012-2459-like ambiguity; promotion does not).
				next = append(next, level[i])
			}
		}
		level = next
		t.levels = append(t.levels, level)
	}
	return t
}

// emptyRoot is the canonical root of an empty set.
var emptyRoot = func() [HashLen]byte {
	h := sha256.New()
	h.Write([]byte("p2drm/merkle-empty/v1"))
	var out [HashLen]byte
	copy(out[:], h.Sum(nil))
	return out
}()

// Root returns the tree root.
func (t *Tree) Root() [HashLen]byte {
	if len(t.leaves) == 0 {
		return emptyRoot
	}
	return t.levels[len(t.levels)-1][0]
}

// Size returns the number of (deduplicated) leaves.
func (t *Tree) Size() int { return len(t.leaves) }

// Proof is an inclusion proof: the sibling hashes from leaf to root plus
// the leaf's position bits.
type Proof struct {
	LeafIndex int
	Siblings  [][HashLen]byte
	// Rights[i] is true when sibling i sits to the right of the running
	// hash at level i.
	Rights []bool
}

// Prove produces an inclusion proof for leaf data. Returns an error when
// the leaf is not in the tree.
func (t *Tree) Prove(data []byte) (*Proof, error) {
	lh := LeafHash(data)
	idx, ok := t.index[lh]
	if !ok {
		return nil, errors.New("merkle: leaf not in tree")
	}
	p := &Proof{LeafIndex: idx}
	pos := idx
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		level := t.levels[lvl]
		var sibIdx int
		var right bool
		if pos%2 == 0 {
			sibIdx, right = pos+1, true
		} else {
			sibIdx, right = pos-1, false
		}
		if sibIdx < len(level) {
			p.Siblings = append(p.Siblings, level[sibIdx])
			p.Rights = append(p.Rights, right)
		}
		// Promoted odd nodes contribute no sibling at this level.
		pos /= 2
	}
	return p, nil
}

// Root folds data's leaf hash along the proof's path and returns the root
// the proof places it under: the whole of verification for a caller that
// authenticates the root some other way (a signature over it) rather than
// holding it. An empty path makes the leaf hash the root — the one-leaf
// tree, which needs no Build.
func (p *Proof) Root(data []byte) ([HashLen]byte, error) {
	if p == nil {
		return [HashLen]byte{}, errors.New("merkle: nil proof")
	}
	if len(p.Siblings) != len(p.Rights) {
		return [HashLen]byte{}, errors.New("merkle: malformed proof")
	}
	h := LeafHash(data)
	for i, sib := range p.Siblings {
		if p.Rights[i] {
			h = nodeHash(h, sib)
		} else {
			h = nodeHash(sib, h)
		}
	}
	return h, nil
}

// Marshal encodes a proof:
//
//	leafIndex[4] | count[2] | (dir[1] | hash[32])*
func (p *Proof) Marshal() []byte {
	out := make([]byte, 6+len(p.Siblings)*(1+HashLen))
	out[0] = byte(p.LeafIndex >> 24)
	out[1] = byte(p.LeafIndex >> 16)
	out[2] = byte(p.LeafIndex >> 8)
	out[3] = byte(p.LeafIndex)
	out[4] = byte(len(p.Siblings) >> 8)
	out[5] = byte(len(p.Siblings))
	off := 6
	for i, s := range p.Siblings {
		if p.Rights[i] {
			out[off] = 1
		}
		copy(out[off+1:], s[:])
		off += 1 + HashLen
	}
	return out
}

// ReadProof decodes the proof at the front of data and returns the bytes
// after it: the encoding states its own length, so a proof can sit inside
// a larger one (a license carries its path this way). A proof that states
// more than maxSiblings is refused before anything is read or allocated
// for it.
func ReadProof(data []byte, maxSiblings int) (*Proof, []byte, error) {
	if len(data) < 6 {
		return nil, nil, errors.New("merkle: truncated proof")
	}
	idx := int(data[0])<<24 | int(data[1])<<16 | int(data[2])<<8 | int(data[3])
	count := int(data[4])<<8 | int(data[5])
	if count > maxSiblings {
		return nil, nil, fmt.Errorf("merkle: proof of %d siblings, at most %d allowed", count, maxSiblings)
	}
	end := 6 + count*(1+HashLen)
	if len(data) < end {
		return nil, nil, errors.New("merkle: truncated proof")
	}
	p := &Proof{LeafIndex: idx}
	for off := 6; off < end; off += 1 + HashLen {
		switch data[off] {
		case 0:
			p.Rights = append(p.Rights, false)
		case 1:
			p.Rights = append(p.Rights, true)
		default:
			return nil, nil, errors.New("merkle: invalid direction byte")
		}
		var h [HashLen]byte
		copy(h[:], data[off+1:])
		p.Siblings = append(p.Siblings, h)
	}
	return p, data[end:], nil
}
