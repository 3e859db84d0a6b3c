package rsablind

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// testKey generates (and caches) a 1024-bit key: small enough to keep the
// suite fast, large enough to exercise real multi-word arithmetic.
var (
	keyOnce sync.Once
	key     *rsa.PrivateKey
)

func testSigner(t *testing.T) *Signer {
	t.Helper()
	keyOnce.Do(func() {
		var err error
		key, err = rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
	})
	s, err := NewSigner(key)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBlindSignRoundtrip(t *testing.T) {
	s := testSigner(t)
	msg := []byte("anonymous license serial 0001")

	blinded, st, err := Blind(s.Public(), msg, rand.Reader)
	if err != nil {
		t.Fatalf("Blind: %v", err)
	}
	blindSig, err := s.SignBlinded(blinded)
	if err != nil {
		t.Fatalf("SignBlinded: %v", err)
	}
	sig, err := Unblind(s.Public(), st, blindSig)
	if err != nil {
		t.Fatalf("Unblind: %v", err)
	}
	if err := Verify(s.Public(), msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestPlainSignVerify(t *testing.T) {
	s := testSigner(t)
	msg := []byte("personalized license body")
	sig, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s.Public(), msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := Verify(s.Public(), []byte("other"), sig); err == nil {
		t.Error("signature verified for wrong message")
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	s := testSigner(t)
	msg := []byte("m")
	sig, _ := s.Sign(msg)
	for _, i := range []int{0, len(sig) / 2, len(sig) - 1} {
		bad := append([]byte(nil), sig...)
		bad[i] ^= 0x01
		if err := Verify(s.Public(), msg, bad); err == nil {
			t.Errorf("tampered signature (byte %d) verified", i)
		}
	}
}

func TestVerifyRejectsOutOfRange(t *testing.T) {
	s := testSigner(t)
	// s >= N
	tooBig := s.Public().N.Bytes()
	if err := Verify(s.Public(), []byte("m"), tooBig); err == nil {
		t.Error("accepted sig == N")
	}
	// s == 0
	if err := Verify(s.Public(), []byte("m"), make([]byte, SigLen(s.Public()))); err == nil {
		t.Error("accepted zero signature")
	}
}

func TestSignBlindedRejectsOutOfRange(t *testing.T) {
	s := testSigner(t)
	if _, err := s.SignBlinded(s.Public().N.Bytes()); err == nil {
		t.Error("signer accepted value == N")
	}
	if _, err := s.SignBlinded([]byte{}); err == nil {
		t.Error("signer accepted empty value")
	}
}

func TestUnblindDetectsBadSigner(t *testing.T) {
	s := testSigner(t)
	msg := []byte("serial")
	_, st, err := Blind(s.Public(), msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// A malicious signer returns garbage instead of a real signature.
	garbage := make([]byte, SigLen(s.Public()))
	garbage[len(garbage)-1] = 7
	if _, err := Unblind(s.Public(), st, garbage); err == nil {
		t.Error("Unblind accepted a forged blinded signature")
	}
}

// TestBlindnessSignerViewIndependent checks the unlinkability core: the
// values the signer sees (blinded messages) are different across blindings
// of the same message, and none equals the raw FDH value.
func TestBlindnessSignerViewIndependent(t *testing.T) {
	s := testSigner(t)
	msg := []byte("the same serial every time")
	raw := fdh(s.Public().N, msg)
	seen := make(map[string]bool)
	for i := 0; i < 16; i++ {
		blinded, _, err := Blind(s.Public(), msg, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if new(big.Int).SetBytes(blinded).Cmp(raw) == 0 {
			t.Fatal("blinded value equals raw hash: blinding is a no-op")
		}
		if seen[string(blinded)] {
			t.Fatal("two independent blindings collided")
		}
		seen[string(blinded)] = true
	}
}

// TestUnblindedSignaturesIdenticalAcrossBlindings: unblinded signatures are
// deterministic FDH-RSA signatures, so different blind sessions over the
// same message converge to the same final signature — meaning the final
// signature carries no trace of the blinding session (perfect unlinkability
// of issue vs redeem).
func TestUnblindedSignaturesIdenticalAcrossBlindings(t *testing.T) {
	s := testSigner(t)
	msg := []byte("serial-42")
	var first []byte
	for i := 0; i < 4; i++ {
		blinded, st, err := Blind(s.Public(), msg, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := s.SignBlinded(blinded)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := Unblind(s.Public(), st, bs)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = sig
		} else if !bytes.Equal(first, sig) {
			t.Fatal("unblinded signature differs across sessions")
		}
	}
}

func TestFDHProperties(t *testing.T) {
	s := testSigner(t)
	n := s.Public().N
	a := fdh(n, []byte("a"))
	b := fdh(n, []byte("b"))
	if a.Cmp(b) == 0 {
		t.Error("fdh collision on distinct inputs")
	}
	if a.Cmp(fdh(n, []byte("a"))) != 0 {
		t.Error("fdh not deterministic")
	}
	if a.Cmp(one) <= 0 || a.Cmp(n) >= 0 {
		t.Error("fdh out of range")
	}
}

func TestSigLen(t *testing.T) {
	s := testSigner(t)
	if got, want := SigLen(s.Public()), 128; got != want {
		t.Errorf("SigLen = %d, want %d", got, want)
	}
	sig, _ := s.Sign([]byte("x"))
	if len(sig) != SigLen(s.Public()) {
		t.Errorf("signature length %d != SigLen %d", len(sig), SigLen(s.Public()))
	}
}

func TestNewSignerRejectsNil(t *testing.T) {
	if _, err := NewSigner(nil); err == nil {
		t.Error("NewSigner(nil) succeeded")
	}
}

func TestBlindRejectsNilKey(t *testing.T) {
	if _, _, err := Blind(nil, []byte("m"), rand.Reader); err == nil {
		t.Error("Blind accepted nil key")
	}
}

// Property: for arbitrary messages the whole pipeline verifies, and the
// signature never verifies against a different message.
func TestQuickBlindPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("slow RSA property test")
	}
	s := testSigner(t)
	cfg := &quick.Config{MaxCount: 12, Rand: mrand.New(mrand.NewSource(1))}
	f := func(msg, other []byte) bool {
		blinded, st, err := Blind(s.Public(), msg, rand.Reader)
		if err != nil {
			return false
		}
		bs, err := s.SignBlinded(blinded)
		if err != nil {
			return false
		}
		sig, err := Unblind(s.Public(), st, bs)
		if err != nil {
			return false
		}
		if Verify(s.Public(), msg, sig) != nil {
			return false
		}
		if !bytes.Equal(msg, other) && Verify(s.Public(), other, sig) == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRandIntUniformBounds(t *testing.T) {
	max := big.NewInt(1000)
	for i := 0; i < 200; i++ {
		v, err := randInt(rand.Reader, max)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sign() < 0 || v.Cmp(max) > 0 {
			t.Fatalf("randInt out of range: %v", v)
		}
	}
	z, err := randInt(rand.Reader, big.NewInt(0))
	if err != nil || z.Sign() != 0 {
		t.Errorf("randInt(0) = %v, %v", z, err)
	}
}

// A CRT result with one faulted half must not leave the signer: whoever
// chose the input could factor the modulus from it (Bellcore attack). The
// test corrupts Dp, shows that the value the unchecked Garner step would
// have released does give up a prime, and that Sign and SignBlinded
// release nothing.
func TestFaultedCRTResultIsNotReleased(t *testing.T) {
	k, err := rsa.GenerateKey(rand.Reader, 1024) // own key: the fault stays out of the shared one
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSigner(k)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("root statement")
	blinded, _, err := Blind(s.Public(), msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sign(msg); err != nil {
		t.Fatalf("healthy key: Sign: %v", err)
	}
	if _, err := s.SignBlinded(blinded); err != nil {
		t.Fatalf("healthy key: SignBlinded: %v", err)
	}

	k.Precomputed.Dp = new(big.Int).Add(k.Precomputed.Dp, big.NewInt(2))

	// What the recombination yields without the check, and what it is worth.
	b := new(big.Int).SetBytes(blinded)
	p, q := k.Primes[0], k.Primes[1]
	m1 := new(big.Int).Exp(b, k.Precomputed.Dp, p)
	m2 := new(big.Int).Exp(b, k.Precomputed.Dq, q)
	h := new(big.Int).Sub(m1, m2)
	h.Mul(h, k.Precomputed.Qinv).Mod(h, p)
	faulty := h.Mul(h, q).Add(h, m2)
	diff := new(big.Int).Exp(faulty, big.NewInt(int64(k.E)), k.N)
	diff.Sub(diff, b)
	if f := new(big.Int).GCD(nil, nil, diff.Abs(diff), k.N); f.Cmp(q) != 0 {
		t.Fatalf("the faulted value does not factor N (gcd = %v): the test no longer models the attack", f)
	}

	before := s.PrivateOps()
	if sig, err := s.Sign(msg); !errors.Is(err, ErrFault) || sig != nil {
		t.Errorf("Sign on a faulted key = %x, %v; want nothing and ErrFault", sig, err)
	}
	if sig, err := s.SignBlinded(blinded); !errors.Is(err, ErrFault) || sig != nil {
		t.Errorf("SignBlinded on a faulted key = %x, %v; want nothing and ErrFault", sig, err)
	}
	if got := s.PrivateOps() - before; got != 2 {
		t.Errorf("faulted operations counted %d times, want 2", got)
	}
}

// PrivateOps counts exactly the private exponentiations: one per Sign and
// per SignBlinded, none for a refused input, a key-id check or a
// verification.
func TestPrivateOpsCountsSignatures(t *testing.T) {
	s := testSigner(t)
	msg := []byte("counted")
	blinded, _, err := Blind(s.Public(), msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if s.PrivateOps() != 0 {
		t.Fatalf("fresh signer counts %d operations", s.PrivateOps())
	}
	sig, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.SignBlinded(blinded); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.SignBlinded(nil); err == nil {
		t.Fatal("empty blinded value signed")
	}
	_ = s.CheckBlinded(blinded)
	_ = s.CheckKeyID(s.KeyID())
	if err := Verify(s.Public(), msg, sig); err != nil {
		t.Fatal(err)
	}
	if got := s.PrivateOps(); got != 4 {
		t.Errorf("PrivateOps = %d, want 4 (one Sign, three SignBlinded)", got)
	}
}

// failingReader stands in for an exhausted entropy source.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("entropy source failed") }

// The timing mask u comes from crypto/rand whatever reader the caller
// passes; when crypto/rand fails, Blind must fail too rather than blind
// with an unmasked r. Swaps the package-level crypto/rand.Reader, so the
// test does not run in parallel.
func TestBlindFailsClosedWithoutMaskRandomness(t *testing.T) {
	s := testSigner(t)
	// Leading byte 0x11 keeps every candidate below the (top-bit-set)
	// modulus, so the caller's reader alone would always yield an r.
	seed := bytes.Repeat([]byte{0x11, 0x2b, 0x91, 0x6e}, 64)
	if _, _, err := Blind(s.Public(), []byte("m"), bytes.NewReader(seed)); err != nil {
		t.Fatalf("healthy crypto/rand: %v", err)
	}

	saved := rand.Reader
	rand.Reader = failingReader{}
	t.Cleanup(func() { rand.Reader = saved })
	blinded, st, err := Blind(s.Public(), []byte("m"), bytes.NewReader(seed))
	if err == nil {
		t.Fatalf("Blind without mask randomness = %x, %v; want an error", blinded, st)
	}
}

// CRT and full-exponent private exponentiation must agree bit for bit.
func TestPrivExpMatchesFullExponent(t *testing.T) {
	s := testSigner(t)
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

func benchKey(b *testing.B) *rsa.PrivateKey {
	k, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		b.Fatal(err)
	}
	return k
}

func BenchmarkPrivExpCRT(b *testing.B) {
	s, _ := NewSigner(benchKey(b))
	m, _ := rand.Int(rand.Reader, s.Public().N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.privExp(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrivExpFull(b *testing.B) {
	k := benchKey(b)
	m, _ := rand.Int(rand.Reader, k.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(big.Int).Exp(m, k.D, k.N)
	}
}
