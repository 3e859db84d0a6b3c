package schnorr

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"math/big"
	"strings"
	"sync"
	"testing"

	"p2drm/internal/cryptox/precomp"
)

// freshGroup returns a new *Group with the 768-bit parameters so table,
// use-count and pool state do not leak between tests (the registry is
// keyed by pointer).
func freshGroup() *Group { return mustGroup("modp768-test", hex768) }

func TestExpGMatchesExpWithTable(t *testing.T) {
	g := freshGroup()
	g.Precompute()
	if !g.Precomputed() {
		t.Fatal("Precomputed() false after Precompute")
	}
	for i := 0; i < 20; i++ {
		x, err := randScalar(g, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Exp(g.G, x, g.P)
		if got := g.ExpG(x); got.Cmp(want) != 0 {
			t.Fatalf("ExpG mismatch for %v", x)
		}
		// Blinding is per call: same exponent twice must still agree.
		if got := g.ExpG(x); got.Cmp(want) != 0 {
			t.Fatalf("ExpG second call mismatch for %v", x)
		}
	}
	// Edge scalars.
	for _, x := range []*big.Int{big.NewInt(1), big.NewInt(2), new(big.Int).Sub(g.Q, big.NewInt(1))} {
		want := new(big.Int).Exp(g.G, x, g.P)
		if got := g.ExpG(x); got.Cmp(want) != 0 {
			t.Fatalf("ExpG edge mismatch for %v", x)
		}
	}
}

// A group serves its first tableAfter−1 exponentiations through math/big
// and builds no table; the tableAfter-th builds it. ExpG's values are
// the same on both sides of the switch, edge exponents and negative ones
// included.
// failingReader stands in for an exhausted entropy source.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("entropy source failed") }

// ExpG never runs an exponent unblinded: without crypto/rand it panics,
// on the math/big path and on the table's alike.
func TestExpGFailsClosedWithoutBlindingRandomness(t *testing.T) {
	x := big.NewInt(0x5eed)
	for _, tabled := range []bool{false, true} {
		g := freshGroup()
		if tabled {
			g.Precompute()
		}
		want := new(big.Int).Exp(g.G, x, g.P)
		if got := g.ExpG(x); got.Cmp(want) != 0 {
			t.Fatalf("tabled=%v: healthy ExpG = %v, want %v", tabled, got, want)
		}
		func() {
			saved := rand.Reader
			rand.Reader = failingReader{}
			defer func() { rand.Reader = saved }()
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "schnorr: ") {
					t.Errorf("tabled=%v: ExpG without randomness recovered %q, want a schnorr: panic", tabled, msg)
				}
			}()
			got := g.ExpG(x)
			t.Errorf("tabled=%v: ExpG without randomness returned %v", tabled, got)
		}()
	}
}

func TestExpGSameValuesAcrossTheThreshold(t *testing.T) {
	g := freshGroup()
	one := big.NewInt(1)
	xs := []*big.Int{
		big.NewInt(0), one, new(big.Int).Sub(g.Q, one), g.Q, new(big.Int).Add(g.Q, one),
		big.NewInt(-1), new(big.Int).Neg(g.Q),
	}
	for i := 0; i < 4; i++ {
		x, err := randScalar(g, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
	}
	check := func(side string) {
		t.Helper()
		for _, x := range xs {
			if got, want := g.ExpG(x), new(big.Int).Exp(g.G, x, g.P); got.Cmp(want) != 0 {
				t.Errorf("%s the threshold: ExpG(%v) differs from Exp", side, x)
			}
		}
	}
	check("below")
	st := g.state()
	for st.uses.Load() < tableAfter-1 {
		g.ExpG(one)
	}
	if g.Precomputed() {
		t.Fatalf("table built after %d calls, want none before %d", st.uses.Load(), tableAfter)
	}
	check("at and above")
	if !g.Precomputed() {
		t.Fatalf("no table after %d calls", st.uses.Load())
	}
	if n := st.uses.Load(); n != tableAfter {
		t.Errorf("%d calls counted, want counting to stop at %d once the table is built", n, tableAfter)
	}
}

// 32 goroutines crossing the threshold together, one of them calling
// Precompute on the way, publish one table: every goroutine that sees a
// table sees the same one, the pointer is never replaced, and Precompute
// returns only once the table is there. Run with -race.
func TestExpGConcurrentCrossingBuildsOnce(t *testing.T) {
	g := freshGroup()
	st := g.state()
	const workers = 32
	const per = 2 * tableAfter / workers
	x := big.NewInt(0x5eed)
	want := new(big.Int).Exp(g.G, x, g.P)
	seen := make([][]*precomp.Table, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < per; i++ {
				if w == 0 && i == per/2 {
					g.Precompute()
					if !g.Precomputed() {
						t.Error("Precompute returned before the table was published")
					}
				}
				if g.ExpG(x).Cmp(want) != 0 {
					t.Error("ExpG value changed across the switch")
				}
				seen[w] = append(seen[w], st.table.Load())
			}
		}(w)
	}
	close(start)
	wg.Wait()
	final := st.table.Load()
	if final == nil {
		t.Fatal("no table after the threshold was crossed")
	}
	for w, ts := range seen {
		for _, tb := range ts {
			if tb != nil && tb != final {
				t.Fatalf("goroutine %d saw a table that was later replaced", w)
			}
		}
	}
	g.Precompute()
	g.ExpG(x)
	if st.table.Load() != final {
		t.Fatal("Precompute replaced a published table")
	}
}

// Nonce-pool uniqueness: concurrent signers drawing pooled nonces must
// never produce two signatures sharing a commitment — a repeated Schnorr
// nonce leaks the private key. Run with -race.
func TestNoncePoolUniquenessConcurrent(t *testing.T) {
	g := freshGroup()
	g.Precompute()
	g.EnableNoncePool(64, 2)
	defer g.DisableNoncePool()
	if err := g.PrefillNoncePool(64); err != nil {
		t.Fatal(err)
	}
	k, err := GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const signs = 40
	sigs := make([][]*Signature, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < signs; i++ {
				sig, err := k.Sign([]byte("msg"), rand.Reader)
				if err != nil {
					t.Error(err)
					return
				}
				sigs[w] = append(sigs[w], sig)
			}
		}(w)
	}
	wg.Wait()

	seen := map[[32]byte]bool{}
	for _, ws := range sigs {
		for _, sig := range ws {
			if err := Verify(g, k.Y, []byte("msg"), sig); err != nil {
				t.Fatalf("pooled signature does not verify: %v", err)
			}
			fp := sha256.Sum256(sig.R.Bytes())
			if seen[fp] {
				t.Fatal("nonce commitment repeated across signatures")
			}
			seen[fp] = true
		}
	}

	st, ok := g.NoncePoolStats()
	if !ok {
		t.Fatal("NoncePoolStats: no pool")
	}
	if st.Hits == 0 {
		t.Error("pool recorded no hits despite prefill")
	}
	if st.Capacity != 64 {
		t.Errorf("capacity %d, want 64", st.Capacity)
	}
}

// A deterministic reader must bypass the pool and consume exactly the
// bytes the inline path always consumed: same seed, same signature,
// pool or no pool.
func TestDeterministicReaderBypassesPool(t *testing.T) {
	g := freshGroup()
	seed := bytes.Repeat([]byte{0x5a, 0x17, 0xc3, 0x09}, 64)
	k, err := NewPrivateKey(g, []byte("fixed secret"))
	if err != nil {
		t.Fatal(err)
	}
	sigBare, err := k.Sign([]byte("m"), bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}

	g.EnableNoncePool(16, 1)
	defer g.DisableNoncePool()
	if err := g.PrefillNoncePool(16); err != nil {
		t.Fatal(err)
	}
	sigPooled, err := k.Sign([]byte("m"), bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sigBare.Bytes(g), sigPooled.Bytes(g)) {
		t.Fatal("pool changed the deterministic-reader signature")
	}
	st, _ := g.NoncePoolStats()
	if st.Hits != 0 {
		t.Fatalf("deterministic reader hit the pool %d times", st.Hits)
	}
}

func TestNoncePoolDisableIdempotent(t *testing.T) {
	g := freshGroup()
	g.EnableNoncePool(4, 1)
	g.EnableNoncePool(8, 1) // second enable keeps the first pool
	st, ok := g.NoncePoolStats()
	if !ok || st.Capacity != 4 {
		t.Fatalf("stats after double enable: %+v ok=%v", st, ok)
	}
	g.DisableNoncePool()
	g.DisableNoncePool()
	if _, ok := g.NoncePoolStats(); ok {
		t.Fatal("pool still reported after disable")
	}
}

var (
	expSink   *big.Int
	tableSink *precomp.Table
)

// BenchmarkT1_ExpG is where tableAfter and docs/crypto.md's generator
// table figures come from:
//
//	go test -run '^$' -bench T1_ExpG -benchtime 100x ./internal/cryptox/schnorr
//
// plain is g^x through math/big and table through the fixed-base table,
// both on the blinded exponent ExpG computes; build is the table's
// one-time cost. The build pays for itself after build/(plain − table)
// calls.
func BenchmarkT1_ExpG(b *testing.B) {
	for _, base := range []*Group{Group768(), Group2048()} {
		g := &Group{Name: base.Name, P: base.P, Q: base.Q, G: base.G}
		bits := g.Name[len("modp"):]
		x, err := randScalar(g, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("plain/"+bits, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				expSink = new(big.Int).Exp(g.G, g.blind(x), g.P)
			}
		})
		b.Run("table/"+bits, func(b *testing.B) {
			g.Precompute()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				expSink = g.ExpG(x)
			}
		})
		b.Run("build/"+bits, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tableSink = newTable(g)
			}
		})
	}
}
