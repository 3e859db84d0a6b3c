package schnorr

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// batchFixtures builds n valid items under n distinct keys.
func batchFixtures(t testing.TB, n int) ([]BatchProofItem, []*PrivateKey) {
	t.Helper()
	return sharedKeyFixtures(t, n, n)
}

// checkEquivalence asserts the batch verdicts equal per-item VerifyProof
// verdicts slot by slot — the property the batch path must preserve.
func checkEquivalence(t *testing.T, g *Group, items []BatchProofItem) {
	t.Helper()
	errs := VerifyProofBatch(g, items, rand.Reader)
	if len(errs) != len(items) {
		t.Fatalf("got %d verdicts for %d items", len(errs), len(items))
	}
	for i, it := range items {
		single := VerifyProof(g, it.Y, it.Context, it.Proof)
		if (errs[i] == nil) != (single == nil) {
			t.Errorf("item %d: batch says %v, single says %v", i, errs[i], single)
		}
	}
}

func TestBatchAllValid(t *testing.T) {
	g := Group768()
	items, _ := batchFixtures(t, 8)
	for i, err := range VerifyProofBatch(g, items, rand.Reader) {
		if err != nil {
			t.Errorf("item %d: %v", i, err)
		}
	}
}

func TestBatchSingleCulpritIdentified(t *testing.T) {
	g := Group768()
	for _, corrupt := range []int{0, 3, 7} {
		items, _ := batchFixtures(t, 8)
		bad := items[corrupt].Proof
		bad.Sig.S = new(big.Int).Add(bad.Sig.S, big.NewInt(1))
		bad.Sig.S.Mod(bad.Sig.S, g.Q)
		errs := VerifyProofBatch(g, items, rand.Reader)
		for i, err := range errs {
			if i == corrupt && err == nil {
				t.Errorf("corrupted item %d accepted", i)
			}
			if i != corrupt && err != nil {
				t.Errorf("valid item %d rejected: %v", i, err)
			}
		}
		checkEquivalence(t, g, items)
	}
}

func TestBatchEquivalenceMixedMalformations(t *testing.T) {
	g := Group768()
	items, keys := batchFixtures(t, 12)

	// 0: nil proof
	items[0].Proof = nil
	// 1: legacy proof without commitment (round-tripped through the
	// two-scalar wire form) — valid, must be accepted via fallback.
	legacy, err := ParseProof(g, items[1].Proof.Sig.Bytes(g))
	if err != nil {
		t.Fatal(err)
	}
	items[1].Proof = legacy
	// 2: commitment inconsistent with the challenge but (E,S) valid —
	// VerifyProof accepts this (R is advisory), so batch must too.
	items[2].Proof.Sig.R = new(big.Int).Set(items[3].Proof.Sig.R)
	// 3: corrupted response scalar.
	items[3].Proof.Sig.S = new(big.Int).Add(items[3].Proof.Sig.S, big.NewInt(1))
	items[3].Proof.Sig.S.Mod(items[3].Proof.Sig.S, g.Q)
	// 4: proof for the wrong context.
	wrongCtx, err := keys[4].Prove([]byte("other context"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	items[4].Proof = wrongCtx
	// 5: public key outside the subgroup (quadratic non-residue).
	items[5].Y = findNonResidue(g)
	// 6: commitment outside the subgroup — cannot join the batch, but
	// per-item verification ignores R, so the valid (E,S) is accepted.
	items[6].Proof.Sig.R = findNonResidue(g)
	// 7: proof under the wrong key.
	items[7].Proof, err = keys[8].Prove(items[7].Context, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// 8: out-of-range challenge scalar.
	items[8].Proof.Sig.E = new(big.Int).Add(g.Q, big.NewInt(5))
	// 9-11 stay valid.

	checkEquivalence(t, g, items)

	// Spot-check the interesting verdicts directly.
	errs := VerifyProofBatch(g, items, rand.Reader)
	for _, want := range []struct {
		i  int
		ok bool
	}{{0, false}, {1, true}, {2, true}, {3, false}, {4, false}, {5, false},
		{6, true}, {7, false}, {8, false}, {9, true}, {10, true}, {11, true}} {
		if got := errs[want.i] == nil; got != want.ok {
			t.Errorf("item %d: accepted=%v, want %v (err %v)", want.i, got, want.ok, errs[want.i])
		}
	}
}

func TestBatchSmallAndEmpty(t *testing.T) {
	g := Group768()
	if errs := VerifyProofBatch(g, nil, rand.Reader); len(errs) != 0 {
		t.Fatalf("empty batch: %d verdicts", len(errs))
	}
	items, _ := batchFixtures(t, 1)
	if errs := VerifyProofBatch(g, items, rand.Reader); errs[0] != nil {
		t.Fatalf("single-item batch: %v", errs[0])
	}
}

// findNonResidue returns an in-range element with Jacobi symbol -1.
func findNonResidue(g *Group) *big.Int {
	v := big.NewInt(2)
	for ; ; v.Add(v, big.NewInt(1)) {
		if big.Jacobi(v, g.P) == -1 {
			return new(big.Int).Set(v)
		}
	}
}

func TestMultiExpMatchesExp(t *testing.T) {
	g := Group768()
	for n := 1; n <= 5; n++ {
		bases := make([]*big.Int, n)
		exps := make([]*big.Int, n)
		want := big.NewInt(1)
		for i := 0; i < n; i++ {
			b, err := rand.Int(rand.Reader, g.P)
			if err != nil {
				t.Fatal(err)
			}
			e, err := rand.Int(rand.Reader, g.Q)
			if err != nil {
				t.Fatal(err)
			}
			bases[i], exps[i] = b, e
			want.Mul(want, new(big.Int).Exp(b, e, g.P))
			want.Mod(want, g.P)
		}
		got, err := multiExp(g.P, bases, exps)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("n=%d: multiExp mismatch", n)
		}
	}
	// Zero exponents.
	got, err := multiExp(g.P, []*big.Int{g.G, g.G}, []*big.Int{new(big.Int), new(big.Int)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("all-zero exponents: got %v, want 1", got)
	}
}

// The batch path must behave identically with the fixed-base table
// built (Precompute is global for the group singletons, so this test
// also exercises every other schnorr test's code path when run in the
// same process — order-independent because results are value-identical).
func TestBatchWithPrecompute(t *testing.T) {
	g := Group768()
	g.Precompute()
	items, _ := batchFixtures(t, 6)
	items[2].Proof.Sig.S = new(big.Int).Add(items[2].Proof.Sig.S, big.NewInt(1))
	items[2].Proof.Sig.S.Mod(items[2].Proof.Sig.S, g.Q)
	checkEquivalence(t, g, items)
}
