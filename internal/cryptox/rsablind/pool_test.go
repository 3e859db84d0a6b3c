package rsablind

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"math/big"
	"sync"
	"testing"
)

func testKey(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// CRT and full-exponent private exponentiation must agree bit for bit.
func TestPrivExpMatchesFullExponent(t *testing.T) {
	key := testKey(t)
	s, err := NewSigner(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		b, err := rand.Int(rand.Reader, key.N)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Exp(b, key.D, key.N)
		if got, err := s.privExp(b); err != nil || got.Cmp(want) != 0 {
			t.Fatalf("privExp mismatch on input %v (%v)", b, err)
		}
	}
	// Edge inputs.
	for _, b := range []*big.Int{big.NewInt(1), big.NewInt(2), new(big.Int).Sub(key.N, big.NewInt(1))} {
		want := new(big.Int).Exp(b, key.D, key.N)
		if got, err := s.privExp(b); err != nil || got.Cmp(want) != 0 {
			t.Fatalf("privExp edge mismatch on %v (%v)", b, err)
		}
	}
}

// The pooled blind/unblind path must round-trip to a signature
// byte-identical to the inline path's: the unblinded FDH-RSA signature
// is deterministic in (key, msg), whatever blinding factor was used.
func TestPooledBlindUnblindByteIdentical(t *testing.T) {
	key := testKey(t)
	s, err := NewSigner(key)
	if err != nil {
		t.Fatal(err)
	}
	pub := s.Public()
	msg := []byte("pooled round trip")

	roundTrip := func() []byte {
		blinded, st, err := Blind(pub, msg, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := s.SignBlinded(blinded)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := Unblind(pub, st, bs)
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}

	inline := roundTrip() // no pool registered yet

	EnableBlindingPool(pub, 8, 1)
	defer DisableBlindingPool(pub)
	if err := PrefillBlindingPool(pub, 8); err != nil {
		t.Fatal(err)
	}
	pooled := roundTrip()
	if !bytes.Equal(inline, pooled) {
		t.Fatal("pooled and inline paths produced different signatures")
	}
	st, ok := BlindingPoolStats(pub)
	if !ok {
		t.Fatal("no pool stats after enable")
	}
	if st.Hits != 1 {
		t.Fatalf("pool hits = %d, want 1", st.Hits)
	}
	if err := Verify(pub, msg, pooled); err != nil {
		t.Fatal(err)
	}
}

// A deterministic reader must bypass the pool entirely.
func TestDeterministicReaderBypassesBlindingPool(t *testing.T) {
	key := testKey(t)
	pub := &key.PublicKey
	// Leading byte 0x11 keeps every candidate below the (top-bit-set)
	// modulus, so the rejection-sampling loop accepts on the first try no
	// matter which random test key this run generated.
	seed := bytes.Repeat([]byte{0x11, 0x2b, 0x91, 0x6e}, 64)

	blindedBare, _, err := Blind(pub, []byte("m"), bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	EnableBlindingPool(pub, 8, 1)
	defer DisableBlindingPool(pub)
	if err := PrefillBlindingPool(pub, 8); err != nil {
		t.Fatal(err)
	}
	blindedPooled, _, err := Blind(pub, []byte("m"), bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blindedBare, blindedPooled) {
		t.Fatal("pool changed the deterministic-reader blinding")
	}
	if st, _ := BlindingPoolStats(pub); st.Hits != 0 {
		t.Fatalf("deterministic reader hit the pool %d times", st.Hits)
	}
}

// Blinding-factor uniqueness: concurrent blinders must never receive
// the same factor twice — reuse links two blinded values. Run with -race.
func TestBlindingPoolUniquenessConcurrent(t *testing.T) {
	key := testKey(t)
	s, err := NewSigner(key)
	if err != nil {
		t.Fatal(err)
	}
	pub := s.Public()
	EnableBlindingPool(pub, 64, 2)
	defer DisableBlindingPool(pub)
	if err := PrefillBlindingPool(pub, 64); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const blinds = 30
	outs := make([][][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < blinds; i++ {
				// Same message every time: with single-use factors every
				// blinded value must still be distinct.
				blinded, st, err := Blind(pub, []byte("same message"), rand.Reader)
				if err != nil {
					t.Error(err)
					return
				}
				bs, err := s.SignBlinded(blinded)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := Unblind(pub, st, bs); err != nil {
					t.Error(err)
					return
				}
				outs[w] = append(outs[w], blinded)
			}
		}(w)
	}
	wg.Wait()

	seen := map[[32]byte]bool{}
	for _, ws := range outs {
		for _, b := range ws {
			fp := sha256.Sum256(b)
			if seen[fp] {
				t.Fatal("blinding factor reused: identical blinded value observed twice")
			}
			seen[fp] = true
		}
	}
}

func TestBlindingPoolPerKeyIsolation(t *testing.T) {
	k1, k2 := testKey(t), testKey(t)
	EnableBlindingPool(&k1.PublicKey, 4, 1)
	defer DisableBlindingPool(&k1.PublicKey)
	if _, ok := BlindingPoolStats(&k2.PublicKey); ok {
		t.Fatal("pool for k1 visible under k2")
	}
	if err := PrefillBlindingPool(&k2.PublicKey, 4); err != nil {
		t.Fatal(err) // no-op without a pool
	}
}

func BenchmarkPrivExpCRT(b *testing.B) {
	key := testKey(b)
	s, _ := NewSigner(key)
	m, _ := rand.Int(rand.Reader, key.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.privExp(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrivExpFull(b *testing.B) {
	key := testKey(b)
	m, _ := rand.Int(rand.Reader, key.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(big.Int).Exp(m, key.D, key.N)
	}
}

func ExamplePrefillBlindingPool() {
	fmt.Println("no pool:", PrefillBlindingPool(&rsa.PublicKey{N: big.NewInt(15), E: 3}, 1))
	// Output: no pool: <nil>
}
