package smartcard

import (
	"bytes"
	"crypto/rand"

	"testing"
	"time"

	"p2drm/internal/cryptox/kdf"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/license"
	"p2drm/internal/rel"

	"crypto/rsa"
	"sync"
)

func testCard(t *testing.T) *Card {
	t.Helper()
	c, err := NewRandom(schnorr.Group768())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	provOnce sync.Once
	prov     *rsablind.Signer
)

func testProv(t *testing.T) *rsablind.Signer {
	t.Helper()
	provOnce.Do(func() {
		key, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
		prov, err = rsablind.NewSigner(key)
		if err != nil {
			panic(err)
		}
	})
	return prov
}

func TestPseudonymDeterministicAndDistinct(t *testing.T) {
	var seed [kdf.SeedLen]byte
	copy(seed[:], bytes.Repeat([]byte{5}, kdf.SeedLen))
	g := schnorr.Group768()
	c1 := New(g, seed)
	c2 := New(g, seed)

	p1a, err := c1.Pseudonym(3)
	if err != nil {
		t.Fatal(err)
	}
	p1b, _ := c2.Pseudonym(3)
	if p1a.SignY().Cmp(p1b.SignY()) != 0 || p1a.EncY().Cmp(p1b.EncY()) != 0 {
		t.Error("same seed+index produced different pseudonyms")
	}
	p2, _ := c1.Pseudonym(4)
	if p1a.SignY().Cmp(p2.SignY()) == 0 {
		t.Error("different indices share signing key")
	}
	if p1a.SignY().Cmp(p1a.EncY()) == 0 {
		t.Error("sign and enc keys identical")
	}
}

func TestProveVerifies(t *testing.T) {
	c := testCard(t)
	g := c.Group()
	p, _ := c.Pseudonym(0)
	proof, err := c.Prove(0, []byte("provider-nonce"))
	if err != nil {
		t.Fatal(err)
	}
	if err := schnorr.VerifyProof(g, p.SignY(), []byte("provider-nonce"), proof); err != nil {
		t.Errorf("card proof rejected: %v", err)
	}
	if err := schnorr.VerifyProof(g, p.SignY(), []byte("other-nonce"), proof); err == nil {
		t.Error("card proof replayable under other context")
	}
}

// A card's group builds its fixed-base table after its first hundred or
// so exponentiations, with provers running. Proofs made before the
// switch, across it (the Prove whose g^k builds the table) and after it
// all pass VerifyProof and VerifyProofBatch.
func TestProofsVerifyAcrossTheTableSwitch(t *testing.T) {
	base := schnorr.Group768()
	g := &schnorr.Group{Name: "card-switch", P: base.P, Q: base.Q, G: base.G}
	c := New(g, [kdf.SeedLen]byte{7})
	p, err := c.Pseudonym(0)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 64
	type made struct {
		ctx           []byte
		proof         *schnorr.Proof
		before, after bool
	}
	out := make([][]made, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m := made{ctx: []byte{byte(w), byte(i)}, before: g.Precomputed()}
				proof, err := c.Prove(0, m.ctx)
				if err != nil {
					t.Error(err)
					return
				}
				m.proof, m.after = proof, g.Precomputed()
				out[w] = append(out[w], m)
			}
		}(w)
	}
	wg.Wait()

	var items []schnorr.BatchProofItem
	sides := map[string]int{}
	for _, ms := range out {
		for _, m := range ms {
			switch {
			case !m.after:
				sides["before"]++
			case !m.before:
				sides["during"]++
			default:
				sides["after"]++
			}
			if err := schnorr.VerifyProof(g, p.SignY(), m.ctx, m.proof); err != nil {
				t.Errorf("proof %x (table before %v, after %v): %v", m.ctx, m.before, m.after, err)
			}
			items = append(items, schnorr.BatchProofItem{Y: p.SignY(), Context: m.ctx, Proof: m.proof})
		}
	}
	for i, err := range schnorr.VerifyProofBatch(g, items, rand.Reader) {
		if err != nil {
			t.Errorf("batch slot %d: %v", i, err)
		}
	}
	if sides["before"] == 0 || sides["during"] == 0 || sides["after"] == 0 {
		t.Errorf("proofs per side of the switch: %v, want some on every side", sides)
	}
}

func TestSignVerifies(t *testing.T) {
	c := testCard(t)
	p, _ := c.Pseudonym(1)
	sig, err := c.Sign(1, []byte("receipt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := schnorr.Verify(c.Group(), p.SignY(), []byte("receipt"), sig); err != nil {
		t.Errorf("card signature rejected: %v", err)
	}
}

func TestUnwrapContentKey(t *testing.T) {
	c := testCard(t)
	g := c.Group()
	p, _ := c.Pseudonym(2)
	key := make([]byte, 32)
	rand.Read(key)
	label := []byte("lic-ctx")
	kw, err := license.WrapKey(g, p.EncY(), key, label)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.UnwrapContentKey(2, kw, label)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, key) {
		t.Error("unwrapped key mismatch")
	}
	if _, err := c.UnwrapContentKey(3, kw, label); err == nil {
		t.Error("wrong pseudonym unwrapped the key")
	}
}

func makeParent(t *testing.T, c *Card, index uint32, rights *rel.Rights, key []byte) *license.Personalized {
	t.Helper()
	g := c.Group()
	p, err := c.Pseudonym(index)
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := license.NewSerial()
	kw, err := license.WrapKey(g, p.EncY(), key, license.WrapLabelPersonalized(serial, "movie-9"))
	if err != nil {
		t.Fatal(err)
	}
	l := &license.Personalized{
		Serial:     serial,
		ContentID:  "movie-9",
		HolderSign: p.SignPublic(g),
		HolderEnc:  p.EncPublic(g),
		Rights:     rights,
		KeyWrap:    kw,
		IssuedAt:   time.Date(2004, 5, 1, 0, 0, 0, 0, time.UTC),
	}
	if err := license.Sign(testProv(t), l); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestIssueStarLicense(t *testing.T) {
	holder := testCard(t)
	delegateCard := testCard(t)
	g := holder.Group()
	key := make([]byte, 32)
	rand.Read(key)

	parent := makeParent(t, holder, 0,
		rel.MustParse("grant play count 10; delegate allow;"), key)
	dp, _ := delegateCard.Pseudonym(0)
	restriction := rel.MustParse("grant play count 2;")

	star, err := holder.IssueStarLicense(0, parent, restriction,
		dp.SignPublic(g), dp.EncPublic(g), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := license.VerifyStar(g, parent, star); err != nil {
		t.Fatalf("issued star fails verification: %v", err)
	}
	// Delegate card can unwrap the content key.
	got, err := delegateCard.UnwrapContentKey(0, star.KeyWrap,
		license.WrapLabelStar(parent.Serial, parent.ContentID))
	if err != nil || !bytes.Equal(got, key) {
		t.Errorf("delegate unwrap failed: %v", err)
	}
}

func TestIssueStarRefusals(t *testing.T) {
	holder := testCard(t)
	other := testCard(t)
	g := holder.Group()
	key := make([]byte, 32)
	rand.Read(key)
	dp, _ := other.Pseudonym(7)

	noDelegate := makeParent(t, holder, 0, rel.MustParse("grant play count 10;"), key)
	if _, err := holder.IssueStarLicense(0, noDelegate, rel.MustParse("grant play count 1;"),
		dp.SignPublic(g), dp.EncPublic(g), time.Now()); err == nil {
		t.Error("card delegated a non-delegable license")
	}

	parent := makeParent(t, holder, 0, rel.MustParse("grant play count 10; delegate allow;"), key)
	if _, err := holder.IssueStarLicense(0, parent, rel.MustParse("grant play count 99;"),
		dp.SignPublic(g), dp.EncPublic(g), time.Now()); err == nil {
		t.Error("card widened rights in delegation")
	}
	// A different pseudonym (wrong holder) may not delegate.
	if _, err := holder.IssueStarLicense(1, parent, rel.MustParse("grant play count 1;"),
		dp.SignPublic(g), dp.EncPublic(g), time.Now()); err == nil {
		t.Error("card delegated a license bound to another pseudonym")
	}
	// Foreign card (no matching key at all).
	if _, err := other.IssueStarLicense(0, parent, rel.MustParse("grant play count 1;"),
		dp.SignPublic(g), dp.EncPublic(g), time.Now()); err == nil {
		t.Error("foreign card delegated someone else's license")
	}
	if _, err := holder.IssueStarLicense(0, nil, rel.MustParse("grant play;"),
		dp.SignPublic(g), dp.EncPublic(g), time.Now()); err == nil {
		t.Error("nil parent accepted")
	}
	if _, err := holder.IssueStarLicense(0, parent, nil,
		dp.SignPublic(g), dp.EncPublic(g), time.Now()); err == nil {
		t.Error("nil restriction accepted")
	}
}

func TestPseudonymUnlinkabilityShape(t *testing.T) {
	// The provider sees only public keys; across indices they must share
	// no algebraic relation it can test. We sanity-check pairwise
	// distinctness across a batch (the real argument is HKDF PRF
	// security, exercised in kdf tests).
	c := testCard(t)
	seen := make(map[string]bool)
	for i := uint32(0); i < 32; i++ {
		p, err := c.Pseudonym(i)
		if err != nil {
			t.Fatal(err)
		}
		k := p.SignY().String()
		if seen[k] {
			t.Fatalf("pseudonym collision at index %d", i)
		}
		seen[k] = true
	}
}
