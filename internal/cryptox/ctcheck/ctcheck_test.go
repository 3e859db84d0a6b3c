package ctcheck_test

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"io"
	"math/big"
	"testing"

	"p2drm/internal/cryptox/ctcheck"
	"p2drm/internal/cryptox/dlkem"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
)

// Guard tuning. |t| > failT fails the guard (dudect's convention calls
// 4.5 "potentially leaky" and ~10 definite; 6 keeps slack for shared CI
// runners). Before comparing the classes, each class is compared against
// itself (first half vs second half of the interleaved run) — if that
// same-class statistic already exceeds noiseT, the box is too noisy for
// a verdict and the guard skips rather than cries wolf.
const (
	samples  = 300
	reps     = 3
	warmup   = 40
	trimFrac = 0.10
	noiseT   = 4.5
	failT    = 6.0
)

// guard interleave-measures the two classes and applies the noise
// control + Welch verdict. A leak verdict requires TWO independent
// measurement rounds past the threshold — a real timing dependence
// reproduces, while a one-off quiet-box fluke does not.
func guard(t *testing.T, name string, a, b func()) {
	t.Helper()
	for i := 0; i < warmup; i++ {
		a()
		b()
	}
	var tt float64
	for round := 0; round < 2; round++ {
		ta, tb := ctcheck.Measure(samples, reps, a, b)
		// Noise control: split each class into its even- and odd-indexed
		// samples — two interleaved populations of identical work, so any
		// significant statistic between them is machine noise, not a leak.
		// (An even/odd split, like the A/B interleave itself, cancels slow
		// drift; a first-half/second-half split would trip on every
		// thermal ramp.)
		for cls, xs := range map[string][]float64{"fixed": ta, "random": tb} {
			var even, odd []float64
			for i, x := range xs {
				if i%2 == 0 {
					even = append(even, x)
				} else {
					odd = append(odd, x)
				}
			}
			h1 := ctcheck.Trim(even, trimFrac)
			h2 := ctcheck.Trim(odd, trimFrac)
			if st := ctcheck.Welch(h1, h2); st > noiseT || st < -noiseT {
				t.Skipf("%s: machine too noisy for a timing verdict (same-class %s t=%.1f)", name, cls, st)
			}
		}
		tt = ctcheck.Welch(ctcheck.Trim(ta, trimFrac), ctcheck.Trim(tb, trimFrac))
		if tt <= failT && tt >= -failT {
			t.Logf("%s: Welch t=%.1f", name, tt)
			return
		}
	}
	t.Errorf("%s: timing depends on the secret class in two independent rounds (Welch t=%.1f, |t|>%.1f)", name, tt, failT)
}

// freshGroup clones the 768-bit lab group parameters under a private
// pointer so Precompute/pool state cannot leak between guards (the
// acceleration registry is keyed by group pointer).
func freshGroup(name string) *schnorr.Group {
	b := schnorr.Group768()
	return &schnorr.Group{Name: name, P: b.P, Q: b.Q, G: b.G}
}

func randomScalars(t *testing.T, g *schnorr.Group, n int) []*big.Int {
	t.Helper()
	out := make([]*big.Int, n)
	for i := range out {
		x, err := rand.Int(rand.Reader, g.Q)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = x
	}
	return out
}

// The fixed-base table is indexed by exponent digit, so without the
// ExpG blinding a fixed exponent would walk a fixed memory pattern.
// This guard checks the blinding does its job: exponentiating the
// constant 1 must be indistinguishable from exponentiating fresh
// random scalars.
func TestTimingExpGTable(t *testing.T) {
	g := freshGroup("ct-table")
	g.Precompute()
	fixed := big.NewInt(1)
	rnd := randomScalars(t, g, samples+warmup)
	i := 0
	guard(t, "ExpG/table",
		func() { g.ExpG(fixed) },
		func() { g.ExpG(rnd[i%len(rnd)]); i++ },
	)
}

// Same guard for the math/big path a group takes before it builds its
// table: ExpG blinds there too, so both paths carry the same posture. A
// group builds its table at its 128th exponentiation, so the classes
// share a fresh group copy for every 100 calls and none ever builds.
func TestTimingExpGFallback(t *testing.T) {
	var groups []*schnorr.Group
	calls := 0
	group := func() *schnorr.Group {
		if calls%100 == 0 {
			groups = append(groups, freshGroup("ct-fallback"))
		}
		calls++
		return groups[len(groups)-1]
	}
	fixed := big.NewInt(1)
	rnd := randomScalars(t, schnorr.Group768(), samples+warmup)
	i := 0
	guard(t, "ExpG/fallback",
		func() { group().ExpG(fixed) },
		func() { group().ExpG(rnd[i%len(rnd)]); i++ },
	)
	for _, g := range groups {
		if g.Precomputed() {
			t.Fatal("a fallback group built its table: the guard timed the table path")
		}
	}
}

// Whole-operation guard over schnorr.Sign: one fixed private key
// against fresh random keys, same message.
func TestTimingSchnorrSign(t *testing.T) {
	g := freshGroup("ct-sign")
	g.Precompute()
	fixedKey, err := schnorr.GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]*schnorr.PrivateKey, samples+warmup)
	for i := range keys {
		if keys[i], err = schnorr.GenerateKey(g, rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	msg := []byte("timing-guard message")
	i := 0
	guard(t, "schnorr.Sign",
		func() {
			if _, err := fixedKey.Sign(msg, rand.Reader); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if _, err := keys[i%len(keys)].Sign(msg, rand.Reader); err != nil {
				t.Fatal(err)
			}
			i++
		},
	)
}

// The provider's KEM sender keeps ONE exponent k for the life of the
// process and raises every new recipient key to it, so a recipient who
// can time first-sight wraps is timing a fixed secret. The sender blinds
// it per exponentiation (k + r·q, fresh r): a fixed k — the constant 1,
// as in the ExpG guards, which bare would cost no exponentiation at all —
// must be indistinguishable from a fresh random k per sample. Same
// recipient throughout; every sample is a fresh Sender, so every share is
// computed, none looked up. The fixed class rebuilds the SAME k from a
// replayed seed each time (as TestTimingUnblind does for its factor),
// which also keeps cache locality equal between the classes.
func TestTimingKEMShare(t *testing.T) {
	g := freshGroup("ct-kem-share")
	g.Precompute() // only the senders' own g^k, outside the timed call
	recipient, err := schnorr.GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// One scalar draw reads 96 bytes (767-bit q): this seed is k = 1.
	seed := make([]byte, 96)
	seed[95] = 1
	// guard calls each class warmup + 2 rounds × samples × reps times at
	// most, and a sender computes a share once.
	n := warmup + 2*samples*reps
	fixed := make([]*dlkem.Sender, n)
	fresh := make([]*dlkem.Sender, n)
	for i := range fixed {
		if fixed[i], err = dlkem.NewSender(g, bytes.NewReader(seed)); err != nil {
			t.Fatal(err)
		}
		if fresh[i], err = dlkem.NewSender(g, rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	share := func(senders []*dlkem.Sender, i *int) func() {
		return func() {
			s := senders[*i]
			*i++
			if _, _, err := s.Encap(recipient.Y); err != nil {
				t.Fatal(err)
			}
			if _, computed := s.Stats(); computed != 1 {
				t.Fatal("timed a cache hit, not a share")
			}
		}
	}
	ia, ib := 0, 0
	guard(t, "dlkem.Sender share", share(fixed, &ia), share(fresh, &ib))
}

func timingTestKey(t *testing.T) *rsa.PrivateKey {
	t.Helper()
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// rsablind.Blind draws a random blinding factor r; its running time
// must not depend on r's value. Class A replays one fixed r, class B
// uses fresh ones — both through in-memory readers, so the classes
// differ only in the factor's value, not the randomness source's
// syscall cost.
func TestTimingBlind(t *testing.T) {
	pub := &timingTestKey(t).PublicKey
	msg := []byte("timing-guard coin")
	// One rejection-sampling attempt reads 128 bytes (1024-bit modulus).
	// Forcing the leading byte to 0x11 keeps every candidate below the
	// top-bit-set modulus, so the first draw is always accepted and each
	// buffer deterministically encodes exactly one blinding factor.
	mkSeed := func(fill func([]byte)) []byte {
		s := make([]byte, 128)
		fill(s[1:])
		s[0] = 0x11
		return s
	}
	fixed := mkSeed(func(b []byte) {
		copy(b, bytes.Repeat([]byte{0x5e, 0xc7, 0x3a}, 43))
	})
	fresh := make([][]byte, (samples+warmup)*reps)
	for i := range fresh {
		fresh[i] = mkSeed(func(b []byte) {
			if _, err := rand.Read(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	i := 0
	guard(t, "rsablind.Blind",
		func() {
			if _, _, err := rsablind.Blind(pub, msg, bytes.NewReader(fixed)); err != nil {
				t.Fatal(err)
			}
		},
		func() {
			if _, _, err := rsablind.Blind(pub, msg, bytes.NewReader(fresh[i%len(fresh)])); err != nil {
				t.Fatal(err)
			}
			i++
		},
	)
}

// rsablind.Unblind multiplies by the secret r^-1: a fixed factor
// against fresh ones. Both classes cycle through distinct state objects
// (the fixed class re-derives the SAME factor value in fresh memory
// each time) so the comparison isolates the secret's value from cache
// locality.
func TestTimingUnblind(t *testing.T) {
	key := timingTestKey(t)
	signer, err := rsablind.NewSigner(key)
	if err != nil {
		t.Fatal(err)
	}
	pub := signer.Public()
	msg := []byte("timing-guard coin")
	type pair struct {
		st  *rsablind.State
		sig []byte
	}
	fixedSeed := make([]byte, 128)
	copy(fixedSeed[1:], bytes.Repeat([]byte{0x9d, 0x40, 0xe2}, 43))
	fixedSeed[0] = 0x11
	mk := func(random io.Reader) pair {
		blinded, st, err := rsablind.Blind(pub, msg, random)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := signer.SignBlinded(blinded)
		if err != nil {
			t.Fatal(err)
		}
		return pair{st, sig}
	}
	n := samples + warmup
	fixed := make([]pair, n)
	fresh := make([]pair, n)
	for i := range fixed {
		fixed[i] = mk(bytes.NewReader(fixedSeed))
		fresh[i] = mk(rand.Reader)
	}
	ia, ib := 0, 0
	guard(t, "rsablind.Unblind",
		func() {
			if _, err := rsablind.Unblind(pub, fixed[ia%n].st, fixed[ia%n].sig); err != nil {
				t.Fatal(err)
			}
			ia++
		},
		func() {
			if _, err := rsablind.Unblind(pub, fresh[ib%n].st, fresh[ib%n].sig); err != nil {
				t.Fatal(err)
			}
			ib++
		},
	)
}
