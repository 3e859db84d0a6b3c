package merkle

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func leaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("serial-%04d", i))
	}
	return out
}

// foldsTo reports whether p places data under root.
func foldsTo(p *Proof, data []byte, root [HashLen]byte) bool {
	got, err := p.Root(data)
	return err == nil && got == root
}

func TestRootDeterministicAndOrderIndependent(t *testing.T) {
	a := Build(leaves(10))
	b := Build(leaves(10))
	if a.Root() != b.Root() {
		t.Error("same leaves, different roots")
	}
	shuffled := leaves(10)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	c := Build(shuffled)
	if a.Root() != c.Root() {
		t.Error("root depends on insertion order; set semantics broken")
	}
}

func TestRootChangesWithContent(t *testing.T) {
	a := Build(leaves(10))
	b := Build(leaves(11))
	if a.Root() == b.Root() {
		t.Error("different sets share a root")
	}
}

func TestDeduplication(t *testing.T) {
	dup := append(leaves(5), leaves(5)...)
	tr := Build(dup)
	if tr.Size() != 5 {
		t.Errorf("Size = %d, want 5 after dedup", tr.Size())
	}
	if tr.Root() != Build(leaves(5)).Root() {
		t.Error("duplicated input changed root")
	}
}

func TestEmptyTree(t *testing.T) {
	a := Build(nil)
	b := Build([][]byte{})
	if a.Root() != b.Root() {
		t.Error("empty roots differ")
	}
	if a.Size() != 0 {
		t.Error("empty tree has leaves")
	}
	if a.Root() == Build(leaves(1)).Root() {
		t.Error("empty root collides with singleton root")
	}
	if _, err := a.Prove([]byte("x")); err == nil {
		t.Error("empty tree produced a proof")
	}
}

func TestSingleLeaf(t *testing.T) {
	tr := Build([][]byte{[]byte("only")})
	p, err := tr.Prove([]byte("only"))
	if err != nil {
		t.Fatal(err)
	}
	if !foldsTo(p, []byte("only"), tr.Root()) {
		t.Fatal("proof does not fold to the root")
	}
	if len(p.Siblings) != 0 {
		t.Error("single-leaf proof has siblings")
	}
}

func TestProveVerifyAllLeavesVariousSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 100} {
		tr := Build(leaves(n))
		for i := 0; i < n; i++ {
			leaf := []byte(fmt.Sprintf("serial-%04d", i))
			p, err := tr.Prove(leaf)
			if err != nil {
				t.Fatalf("n=%d leaf=%d: Prove: %v", n, i, err)
			}
			if !foldsTo(p, leaf, tr.Root()) {
				t.Fatalf("n=%d leaf=%d: proof does not fold to the root", n, i)
			}
		}
	}
}

func TestVerifyRejectsWrongLeaf(t *testing.T) {
	tr := Build(leaves(16))
	p, _ := tr.Prove([]byte("serial-0003"))
	if foldsTo(p, []byte("serial-0004"), tr.Root()) {
		t.Error("proof for one leaf verified for another")
	}
	if foldsTo(p, []byte("not-present"), tr.Root()) {
		t.Error("proof verified for absent leaf")
	}
}

func TestVerifyRejectsWrongRoot(t *testing.T) {
	tr := Build(leaves(16))
	other := Build(leaves(17))
	p, _ := tr.Prove([]byte("serial-0003"))
	if foldsTo(p, []byte("serial-0003"), other.Root()) {
		t.Error("proof verified against wrong root")
	}
}

func TestVerifyRejectsMutatedProof(t *testing.T) {
	tr := Build(leaves(16))
	leaf := []byte("serial-0005")
	p, _ := tr.Prove(leaf)
	if len(p.Siblings) == 0 {
		t.Fatal("expected siblings")
	}
	p.Siblings[0][0] ^= 0xFF
	if foldsTo(p, leaf, tr.Root()) {
		t.Error("mutated sibling accepted")
	}
	p2, _ := tr.Prove(leaf)
	p2.Rights[0] = !p2.Rights[0]
	if foldsTo(p2, leaf, tr.Root()) {
		t.Error("flipped direction accepted")
	}
	if foldsTo(nil, leaf, tr.Root()) {
		t.Error("nil proof accepted")
	}
	p3, _ := tr.Prove(leaf)
	p3.Rights = p3.Rights[:len(p3.Rights)-1]
	if foldsTo(p3, leaf, tr.Root()) {
		t.Error("length-mismatched proof accepted")
	}
}

func TestLeafNodeDomainSeparation(t *testing.T) {
	// A leaf whose bytes equal nodePrefix||h1||h2 must not hash like the
	// interior node over (h1, h2).
	tr := Build(leaves(4))
	l0, l1 := LeafHash([]byte("serial-0000")), LeafHash([]byte("serial-0001"))
	forged := append([]byte{0x01}, append(l0[:], l1[:]...)...)
	if LeafHash(forged) == nodeHash(l0, l1) {
		t.Error("leaf/node domain separation missing")
	}
	_ = tr
}

func TestProofCodec(t *testing.T) {
	tr := Build(leaves(33))
	leaf := []byte("serial-0017")
	p, _ := tr.Prove(leaf)
	data := p.Marshal()
	const maxSiblings = 1<<16 - 1 // the count field's own range
	back, rest, err := ReadProof(data, maxSiblings)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("%d bytes left after a proof that is the whole encoding", len(rest))
	}
	if !foldsTo(back, leaf, tr.Root()) {
		t.Error("decoded proof does not fold to the root")
	}
	if _, _, err := ReadProof(data[:4], maxSiblings); err == nil {
		t.Error("accepted truncated proof")
	}
	bad := append([]byte(nil), data...)
	bad[6] = 7 // invalid direction byte
	if _, _, err := ReadProof(bad, maxSiblings); err == nil {
		t.Error("accepted invalid direction byte")
	}
	// A byte too many is not the proof's: it comes back as the rest, for
	// the enclosing decoder to account for.
	if _, rest, err := ReadProof(append(data, 0), maxSiblings); err != nil || len(rest) != 1 {
		t.Errorf("oversized encoding: rest = %d bytes, err = %v; want the one extra byte handed back", len(rest), err)
	}
}

// Property: every member of a random set proves and verifies; non-members
// cannot be proven.
func TestQuickInclusion(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(10))}
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%60) + 1
		set := make([][]byte, count)
		for i := range set {
			set[i] = []byte(fmt.Sprintf("item-%d-%d", seed, r.Intn(1000)))
		}
		tr := Build(set)
		for _, leaf := range set {
			p, err := tr.Prove(leaf)
			if err != nil {
				return false
			}
			if !foldsTo(p, leaf, tr.Root()) {
				return false
			}
		}
		if _, err := tr.Prove([]byte("definitely-absent")); err == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Root is verification for a caller that authenticates the root by other
// means: it folds every leaf of every tree shape — promoted odd nodes
// included — to the tree's root, the one-leaf tree's to the leaf hash
// itself, and refuses a proof whose two halves disagree.
func TestProofRootFoldsToTheTreeRoot(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16, 17, 255, 256} {
		set := leaves(n)
		tr := Build(set)
		for _, leaf := range set {
			p, err := tr.Prove(leaf)
			if err != nil {
				t.Fatal(err)
			}
			root, err := p.Root(leaf)
			if err != nil || root != tr.Root() {
				t.Fatalf("n=%d leaf %q: Root = %x, %v; want the tree root", n, leaf, root[:4], err)
			}
			if other, _ := p.Root([]byte("another leaf")); other == tr.Root() {
				t.Fatalf("n=%d: a different leaf folded to the same root", n)
			}
		}
	}
	lone := []byte("lone")
	if root, err := new(Proof).Root(lone); err != nil || root != LeafHash(lone) || root != Build([][]byte{lone}).Root() {
		t.Errorf("empty path: Root = %x, %v; want the leaf hash, which is the one-leaf tree's root", root[:4], err)
	}
	if _, err := (&Proof{Siblings: make([][HashLen]byte, 2), Rights: []bool{true}}).Root(lone); err == nil {
		t.Error("a proof with two siblings and one direction folded")
	}
	if _, err := (*Proof)(nil).Root(lone); err == nil {
		t.Error("a nil proof folded")
	}
}

// ReadProof takes a proof off the front of a larger encoding and hands
// back the rest; it refuses a proof that states more siblings than the
// caller allows before reading any of them.
func TestReadProofInsideALargerEncoding(t *testing.T) {
	tr := Build(leaves(33))
	leaf := []byte("serial-0017")
	p, _ := tr.Prove(leaf)
	enc := p.Marshal()
	tail := []byte("what follows")
	back, rest, err := ReadProof(append(append([]byte(nil), enc...), tail...), len(p.Siblings))
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != string(tail) {
		t.Errorf("rest = %q, want %q", rest, tail)
	}
	if !foldsTo(back, leaf, tr.Root()) {
		t.Error("proof read from a larger encoding does not fold to the root")
	}
	if _, _, err := ReadProof(enc, len(p.Siblings)-1); err == nil {
		t.Error("a proof longer than the caller's bound was read")
	}
	if _, _, err := ReadProof(enc[:len(enc)-1], len(p.Siblings)); err == nil {
		t.Error("a proof cut short was read")
	}
	// A header that promises 65535 siblings with nothing behind it.
	if _, _, err := ReadProof([]byte{0, 0, 0, 0, 0xff, 0xff}, 1<<16-1); err == nil {
		t.Error("a header with no siblings behind it was read")
	}
}
