package schnorr

// The batch verifier folds items that present the same key into one term
// of the combined check. These tests pin that folding changes no verdict:
// not for honest batches, not for forgeries built against it.

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// sharedKeyFixtures builds n valid items spread round-robin over nkeys
// keys (nkeys = 1: a bulk wallet under one pseudonym; nkeys = n: the
// all-distinct batch of batchFixtures).
func sharedKeyFixtures(t testing.TB, n, nkeys int) ([]BatchProofItem, []*PrivateKey) {
	t.Helper()
	g := Group768()
	keys := make([]*PrivateKey, nkeys)
	for i := range keys {
		var err error
		if keys[i], err = GenerateKey(g, rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	items := make([]BatchProofItem, n)
	for i := range items {
		k := keys[i%nkeys]
		ctx := []byte(fmt.Sprintf("ctx-%d", i))
		p, err := k.Prove(ctx, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		// A separate big.Int per item: equal keys are equal values, not
		// equal pointers, on the serving path.
		items[i] = BatchProofItem{Y: new(big.Int).Set(k.Y), Context: ctx, Proof: p}
	}
	return items, keys
}

func bumpS(g *Group, p *Proof, delta int64) {
	p.Sig.S = new(big.Int).Add(p.Sig.S, big.NewInt(delta))
	p.Sig.S.Mod(p.Sig.S, g.Q)
}

// wantRejected asserts exactly the slots in bad carry an error.
func wantRejected(t *testing.T, name string, errs []error, bad ...int) {
	t.Helper()
	isBad := make(map[int]bool)
	for _, i := range bad {
		isBad[i] = true
	}
	for i, err := range errs {
		if isBad[i] && err == nil {
			t.Errorf("%s: forged item %d accepted", name, i)
		}
		if !isBad[i] && err != nil {
			t.Errorf("%s: valid item %d rejected: %v", name, i, err)
		}
	}
}

func TestBatchSharedKeys(t *testing.T) {
	g := Group768()
	const n = 16
	for _, nkeys := range []int{1, 2, n} {
		name := fmt.Sprintf("%d keys", nkeys)

		items, _ := sharedKeyFixtures(t, n, nkeys)
		wantRejected(t, name+"/all valid", VerifyProofBatch(g, items, rand.Reader))

		bumpS(g, items[5].Proof, 1)
		wantRejected(t, name+"/one forgery", VerifyProofBatch(g, items, rand.Reader), 5)
		checkEquivalence(t, g, items)

		// Two forgeries under the SAME key, built to cancel: s1+δ and s2−δ
		// leave z·(s1+s2) unchanged, so they pass any combined check that
		// gives both items one combiner — which folding their key's terms
		// must not amount to. Slots 3 and 3+nkeys share a key, except
		// with n keys, where no two items do and the pair is simply two
		// forgeries.
		items, _ = sharedKeyFixtures(t, n, nkeys)
		a, b := 3, 3+nkeys
		if nkeys == n {
			b = 9
		}
		delta := int64(0x5eed)
		bumpS(g, items[a].Proof, delta)
		bumpS(g, items[b].Proof, -delta)
		for round := 0; round < 4; round++ { // fresh combiners each time
			wantRejected(t, name+"/cancelling pair", VerifyProofBatch(g, items, rand.Reader), a, b)
		}
		checkEquivalence(t, g, items)
	}
}

type constReader byte

func (c constReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}

// The control for the cancelling pair: hand every item the SAME combiner
// (a reader that repeats itself) and the pair does cancel — the combined
// equation holds over two invalid proofs. That is what the test above
// would look like if folding had merged the items' combiners, and it is
// why VerifyProofBatch's reader must be a real source of randomness.
func TestCancellingPairNeedsIndependentCombiners(t *testing.T) {
	g := Group768()
	items, _ := sharedKeyFixtures(t, 8, 1)
	bumpS(g, items[2].Proof, 77)
	bumpS(g, items[6].Proof, -77)
	if VerifyProof(g, items[2].Y, items[2].Context, items[2].Proof) == nil ||
		VerifyProof(g, items[6].Y, items[6].Context, items[6].Proof) == nil {
		t.Fatal("the forged proofs verify on their own")
	}
	for i, err := range VerifyProofBatch(g, items, constReader(0x42)) {
		if err != nil {
			t.Fatalf("item %d rejected under equal combiners: the pair was not built to cancel (%v)", i, err)
		}
	}
	wantRejected(t, "independent combiners", VerifyProofBatch(g, items, rand.Reader), 2, 6)
}

// A key outside the subgroup is refused once as a batch member and then
// takes the per-item path every time it is presented: each slot carries
// VerifyProof's own refusal, and the valid items beside it still pass.
func TestBatchInvalidKeyPresentedManyTimes(t *testing.T) {
	g := Group768()
	const n = 16
	items, _ := sharedKeyFixtures(t, n+4, 1)
	bad := findNonResidue(g)
	for i := 0; i < n; i++ {
		items[i].Y = new(big.Int).Set(bad)
	}
	errs := VerifyProofBatch(g, items, rand.Reader)
	for i := 0; i < n; i++ {
		want := VerifyProof(g, items[i].Y, items[i].Context, items[i].Proof)
		if errs[i] == nil || want == nil || errs[i].Error() != want.Error() {
			t.Errorf("slot %d: batch says %v, VerifyProof says %v", i, errs[i], want)
		}
	}
	for i := n; i < len(items); i++ {
		if errs[i] != nil {
			t.Errorf("valid item %d beside the invalid key rejected: %v", i, errs[i])
		}
	}
	// Other values no key may take, repeated: same treatment.
	for _, y := range []*big.Int{nil, big.NewInt(0), big.NewInt(1), big.NewInt(-7),
		new(big.Int).Sub(g.P, big.NewInt(1)), new(big.Int).Add(g.P, items[n].Y)} {
		for i := 0; i < 3; i++ {
			items[i].Y = y
		}
		checkEquivalence(t, g, items)
	}
}

// Property: over random mixes of shared and distinct keys, valid and
// broken in every way the partition knows, the batch verdict equals
// VerifyProof's in every slot.
func TestBatchFoldingEquivalenceProperty(t *testing.T) {
	g := Group768()
	rng := mrand.New(mrand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(14)
		nkeys := 1 + rng.Intn(n)
		items, keys := sharedKeyFixtures(t, n, nkeys)
		for i := range items {
			if rng.Intn(3) != 0 {
				continue // two thirds stay valid
			}
			p := items[i].Proof
			switch rng.Intn(10) {
			case 0:
				bumpS(g, p, 1+rng.Int63n(1000))
			case 1:
				p.Sig.E = new(big.Int).Xor(p.Sig.E, big.NewInt(1))
			case 2:
				items[i].Context = []byte("another context")
			case 3: // another key of the batch (a no-op when there is one key)
				items[i].Y = new(big.Int).Set(keys[rng.Intn(nkeys)].Y)
			case 4:
				items[i].Proof = nil
			case 5: // legacy wire form: valid, cannot join
				legacy, err := ParseProof(g, p.Sig.Bytes(g))
				if err != nil {
					t.Fatal(err)
				}
				items[i].Proof = legacy
			case 6: // advisory R of another proof: valid, cannot join
				if q := items[(i+1)%n].Proof; q != nil && q.Sig.R != nil {
					p.Sig.R = new(big.Int).Set(q.Sig.R)
				}
			case 7:
				items[i].Y = findNonResidue(g)
			case 8:
				p.Sig.S = new(big.Int).Add(p.Sig.S, g.Q)
			case 9: // a cancelling partner under the same key, if there is one
				if j := i + nkeys; j < n && items[j].Proof != nil {
					bumpS(g, p, 99)
					bumpS(g, items[j].Proof, -99)
				}
			}
		}
		checkEquivalence(t, g, items)
	}
}

// BenchmarkT1_VerifyBatch16 shows what folding buys: 16 proofs under one
// key against 16 under sixteen, with the generator table built, as on
// the daemon that verifies them.
func BenchmarkT1_VerifyBatch16(b *testing.B) {
	g := Group768()
	g.Precompute()
	for _, nkeys := range []int{1, 16} {
		items, _ := sharedKeyFixtures(b, 16, nkeys)
		b.Run(fmt.Sprintf("%dkeys", nkeys), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, err := range VerifyProofBatch(g, items, rand.Reader) {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
