package schnorr

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
)

// recommitRef is the formula recommit replaced: y^{-e} as the single
// full-width exponentiation y^{q-e}, valid because y has order q.
func recommitRef(g *Group, y, e, s *big.Int) *big.Int {
	r := new(big.Int).Exp(g.G, s, g.P)
	r.Mul(r, new(big.Int).Exp(y, new(big.Int).Sub(g.Q, e), g.P))
	return r.Mod(r, g.P)
}

// verifyRef is Verify as it stood on recommitRef.
func verifyRef(g *Group, y *big.Int, msg []byte, sig *Signature) error {
	if sig == nil || sig.E == nil || sig.S == nil {
		return errors.New("schnorr: nil signature")
	}
	if sig.S.Sign() < 0 || sig.S.Cmp(g.Q) >= 0 || sig.E.Sign() < 0 || sig.E.Cmp(g.Q) >= 0 {
		return errors.New("schnorr: signature scalar out of range")
	}
	if err := g.ValidatePublicKey(y); err != nil {
		return err
	}
	if challenge(g, y, recommitRef(g, y, sig.E, sig.S), msg).Cmp(sig.E) != 0 {
		return errors.New("schnorr: verification failed")
	}
	return nil
}

// TestRecommitMatchesFullWidthInverse pins the value Verify hashes, not
// just its verdict: random scalars almost never verify, so a verdict
// comparison alone would pass on two formulas that merely both reject.
func TestRecommitMatchesFullWidthInverse(t *testing.T) {
	g := Group768()
	qm1 := new(big.Int).Sub(g.Q, big.NewInt(1))
	zero := new(big.Int)
	randBelow := func(max *big.Int) *big.Int {
		v, err := rand.Int(rand.Reader, max)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	hashWidth := new(big.Int).Lsh(big.NewInt(1), 256)
	for i := 0; i < 24; i++ {
		k, err := GenerateKey(g, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			e, s *big.Int
		}{
			{"hash-width e", randBelow(hashWidth), randBelow(g.Q)},
			{"full-width e", randBelow(g.Q), randBelow(g.Q)},
			{"e=0", zero, randBelow(g.Q)},
			{"e=q-1", qm1, randBelow(g.Q)},
			{"s=0", randBelow(hashWidth), zero},
			{"e=0 s=0", zero, zero},
			{"e=q-1 s=q-1", qm1, qm1},
		} {
			if got, want := recommit(g, k.Y, c.e, c.s), recommitRef(g, k.Y, c.e, c.s); got.Cmp(want) != 0 {
				t.Fatalf("%s: recommit = %x, full-width formula = %x", c.name, got, want)
			}
		}
	}
}

// TestVerifyVerdictsUnchanged runs Verify, VerifyProof and the batch
// verifier's per-item fallback over valid, malformed and edge-scalar
// proofs and requires the same verdict, error text included, as the
// previous formula gives.
func TestVerifyVerdictsUnchanged(t *testing.T) {
	g := Group768()
	items, keys := batchFixtures(t, 12)
	qm1 := new(big.Int).Sub(g.Q, big.NewInt(1))
	bump := func(v *big.Int) *big.Int {
		v = new(big.Int).Add(v, big.NewInt(1))
		return v.Mod(v, g.Q)
	}
	items[0].Proof = nil
	items[1].Proof.Sig.S = bump(items[1].Proof.Sig.S)
	items[2].Proof.Sig.E = bump(items[2].Proof.Sig.E)
	items[3].Proof.Sig.E = new(big.Int)
	items[4].Proof.Sig.E = qm1
	items[5].Proof.Sig.S = new(big.Int)
	items[6].Proof.Sig.E = new(big.Int).Set(g.Q)
	items[7].Y = findNonResidue(g)
	items[8].Y = keys[9].Y
	// 9-11 stay valid.

	// More than one culprit fails the combined check, so every batchable
	// item goes through the per-item fallback.
	batch := VerifyProofBatch(g, items, rand.Reader)
	text := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for i, it := range items {
		var want error
		if it.Proof == nil {
			want = errors.New("schnorr: nil proof")
		} else {
			want = verifyRef(g, it.Y, append([]byte(proofTag), it.Context...), &it.Proof.Sig)
		}
		if got := VerifyProof(g, it.Y, it.Context, it.Proof); text(got) != text(want) {
			t.Errorf("item %d: VerifyProof = %v, previous formula = %v", i, got, want)
		}
		if text(batch[i]) != text(want) {
			t.Errorf("item %d: VerifyProofBatch = %v, previous formula = %v", i, batch[i], want)
		}
		if (want == nil) != (i >= 9) {
			t.Errorf("item %d: reference verdict %v", i, want)
		}
	}
}
