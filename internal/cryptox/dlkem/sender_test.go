package dlkem

import (
	"bytes"
	"crypto/rand"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"math/big"
	"strings"
	"sync"
	"testing"

	"p2drm/internal/cryptox/schnorr"
)

func newTestSender(t testing.TB, g *schnorr.Group) *Sender {
	t.Helper()
	s, err := NewSender(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomResidue returns a valid recipient key without paying for an
// exponentiation: the square of a random element is in the order-q
// subgroup.
func randomResidue(t testing.TB, g *schnorr.Group) *big.Int {
	t.Helper()
	for {
		r, err := rand.Int(rand.Reader, g.P)
		if err != nil {
			t.Fatal(err)
		}
		y := r.Mul(r, r).Mod(r, g.P)
		if g.ValidatePublicKey(y) == nil {
			return y
		}
	}
}

// nonResidue returns an element of (1, p-1) outside the subgroup.
func nonResidue(t testing.TB, g *schnorr.Group) *big.Int {
	t.Helper()
	for v := int64(2); v < 1000; v++ {
		if y := big.NewInt(v); big.Jacobi(y, g.P) == -1 {
			return y
		}
	}
	t.Fatal("no small non-residue")
	return nil
}

func (s *Sender) entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cur) + len(s.old)
}

func (s *Sender) holds(g *schnorr.Group, y *big.Int) bool {
	key := string(g.EncodeElement(y))
	s.mu.Lock()
	defer s.mu.Unlock()
	_, a := s.cur[key]
	_, b := s.old[key]
	return a || b
}

// The sender's KEK is deriveKEK(c, y^k) with y^k computed the plain way —
// on first sight and from the cache — and the recipient's untouched Decap
// recovers it from the sender's ciphertext.
func TestSenderValueEqualsPlainExp(t *testing.T) {
	g := schnorr.Group768()
	s := newTestSender(t, g)
	if want := new(big.Int).Exp(g.G, s.k, g.P); s.c.Cmp(want) != 0 {
		t.Fatal("sender ciphertext is not g^k")
	}
	for i := 0; i < 8; i++ {
		rk, err := schnorr.GenerateKey(g, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		want, err := deriveKEK(g, s.c, new(big.Int).Exp(rk.Y, s.k, g.P))
		if err != nil {
			t.Fatal(err)
		}
		for pass, name := range []string{"first sight", "hit"} {
			ct, kek, err := s.Encap(rk.Y)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ct, g.EncodeElement(s.c)) {
				t.Errorf("%s: ciphertext is not enc(c)", name)
			}
			if !bytes.Equal(kek, want) {
				t.Errorf("%s: KEK differs from deriveKEK(c, y^k)", name)
			}
			got, err := Decap(g, rk.X, ct)
			if err != nil || !bytes.Equal(got, kek) {
				t.Errorf("%s: Decap = %x, %v; want the sender's KEK", name, got, err)
			}
			if cached, computed := s.Stats(); cached != uint64(i+pass) || computed != uint64(i+1) {
				t.Errorf("%s: stats cached=%d computed=%d, want %d/%d", name, cached, computed, i+pass, i+1)
			}
		}
	}
}

// What Encap hands out is the caller's: scribbling over it must not reach
// the sender's ciphertext or the cached KEK.
func TestSenderReturnsCopies(t *testing.T) {
	g := schnorr.Group768()
	s := newTestSender(t, g)
	y := randomResidue(t, g)
	ct1, kek1, err := s.Encap(y)
	if err != nil {
		t.Fatal(err)
	}
	wantCT, wantKEK := append([]byte(nil), ct1...), append([]byte(nil), kek1...)
	for i := range ct1 {
		ct1[i] ^= 0xff
	}
	for i := range kek1 {
		kek1[i] ^= 0xff
	}
	ct2, kek2, err := s.Encap(y)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct2, wantCT) || !bytes.Equal(kek2, wantKEK) {
		t.Error("a caller's write reached the sender's state")
	}
}

// An invalid recipient key is refused on every presentation, costs no
// share, and never enters the cache — the first and the third time alike.
func TestSenderRefusesInvalidKeysEveryTime(t *testing.T) {
	g := schnorr.Group768()
	s := newTestSender(t, g)
	bad := map[string]*big.Int{
		"nil":         nil,
		"negative":    big.NewInt(-4),
		"zero":        big.NewInt(0),
		"one":         big.NewInt(1),
		"p-1":         new(big.Int).Sub(g.P, big.NewInt(1)),
		"non-residue": nonResidue(t, g),
		"p":           new(big.Int).Set(g.P),
		"p+4":         new(big.Int).Add(g.P, big.NewInt(4)),
		"2^4096":      new(big.Int).Lsh(big.NewInt(1), 4096),
	}
	for round := 0; round < 3; round++ {
		for name, y := range bad {
			if _, _, err := s.Encap(y); err == nil {
				t.Errorf("round %d: %s accepted", round, name)
			}
			if _, _, oneShot := Encap(g, y, rand.Reader); oneShot == nil {
				t.Errorf("%s: one-shot Encap accepts it — the two validations differ", name)
			}
		}
		// A good key in between: refusals do not depend on an empty cache.
		if _, _, err := s.Encap(randomResidue(t, g)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.entries(); n != 3 {
		t.Errorf("cache holds %d entries, want the 3 valid keys only", n)
	}
	if cached, computed := s.Stats(); cached != 0 || computed != 3 {
		t.Errorf("stats cached=%d computed=%d, want 0/3", cached, computed)
	}
	if _, err := NewSender(nil, rand.Reader); err == nil {
		t.Error("nil group accepted")
	}
}

// The cache is bounded: capacity + N distinct keys leave at most capacity
// entries, and a key that aged out recomputes to the KEK it had.
func TestSenderCacheIsBounded(t *testing.T) {
	g := schnorr.Group768()
	s := newTestSender(t, g)
	if s.gen != senderCapacity/2 {
		t.Fatalf("generation size %d, want senderCapacity/2", s.gen)
	}
	s.gen = 8 // capacity 16: the production bound costs thousands of exponentiations to reach
	const capacity, extra = 16, 21
	first := randomResidue(t, g)
	_, firstKEK, err := s.Encap(first)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < capacity+extra; i++ {
		if _, _, err := s.Encap(randomResidue(t, g)); err != nil {
			t.Fatal(err)
		}
		if n := s.entries(); n > capacity {
			t.Fatalf("after %d keys the cache holds %d entries, bound is %d", i+1, n, capacity)
		}
	}
	if s.holds(g, first) {
		t.Fatal("the first of capacity+N keys is still cached: nothing was evicted")
	}
	_, computedBefore := s.Stats()
	_, again, err := s.Encap(first)
	if err != nil {
		t.Fatal(err)
	}
	if _, computed := s.Stats(); computed != computedBefore+1 {
		t.Error("an evicted key was not recomputed")
	}
	if !bytes.Equal(again, firstKEK) {
		t.Error("an evicted key recomputed to a different KEK")
	}
}

// A recipient that keeps coming back survives any amount of churn from
// keys seen once: it is computed exactly one time.
func TestSenderStandingRecipientSurvivesChurn(t *testing.T) {
	g := schnorr.Group768()
	s := newTestSender(t, g)
	s.gen = 4
	standing := randomResidue(t, g)
	for i := 0; i < 40; i++ {
		if _, _, err := s.Encap(standing); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ { // fewer one-time keys than a generation between visits
			if _, _, err := s.Encap(randomResidue(t, g)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cached, computed := s.Stats(); cached != 39 || computed != 1+40*3 {
		t.Errorf("cached=%d computed=%d: the standing key was recomputed (want 39 hits, %d computes)",
			cached, computed, 1+40*3)
	}
}

// 32 goroutines over 4 keys: every answer is the key's one KEK, and the
// cache ends with exactly those keys (run under -race by `make race`).
func TestSenderConcurrent(t *testing.T) {
	g := schnorr.Group768()
	s := newTestSender(t, g)
	const goroutines, rounds = 32, 8
	keys := make([]*big.Int, 4)
	want := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = randomResidue(t, g)
		var err error
		if want[i], err = deriveKEK(g, s.c, new(big.Int).Exp(keys[i], s.k, g.P)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(keys)
				ct, kek, err := s.Encap(keys[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(kek, want[i]) || !bytes.Equal(ct, g.EncodeElement(s.c)) {
					t.Errorf("goroutine %d round %d: wrong encapsulation for key %d", w, r, i)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := s.entries(); n != len(keys) {
		t.Errorf("cache holds %d entries, want %d", n, len(keys))
	}
	cached, computed := s.Stats()
	if cached+computed != goroutines*rounds {
		t.Errorf("cached %d + computed %d != %d calls", cached, computed, goroutines*rounds)
	}
	// Goroutines that meet a new key together may each compute it, but
	// only then: never more than one computation per goroutine per key.
	if computed < uint64(len(keys)) || computed > uint64(goroutines*len(keys)) {
		t.Errorf("computed = %d, outside [%d, %d]", computed, len(keys), goroutines*len(keys))
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("no entropy") }

// The long-lived exponent is never exponentiated as it is: every share
// draws a fresh 64-bit multiple of q first, two shares of one key run on
// different exponents, and without that draw there is no share at all.
func TestShareAlwaysBlindsTheExponent(t *testing.T) {
	g := schnorr.Group768()
	s := newTestSender(t, g)
	y := randomResidue(t, g)
	want := new(big.Int).Exp(y, s.k, g.P)

	blind := &countingReader{r: rand.Reader}
	for i := 1; i <= 3; i++ {
		got, err := s.share(y, blind)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatal("blinded share differs from y^k")
		}
		if blind.n != i*shareBlindBits/8 {
			t.Fatalf("share %d consumed %d blinding bytes in total, want %d", i, blind.n, i*shareBlindBits/8)
		}
	}
	// The blinding is k + r·q, so it must cancel for subgroup elements and
	// ONLY for them: on an element of order 2q a share under odd r differs
	// from y^k. Seeing that difference is seeing that r really entered the
	// exponent. (Encap never calls share on such a y; this is the probe.)
	outside := nonResidue(t, g)
	plain := new(big.Int).Exp(outside, s.k, g.P)
	odd := bytes.NewReader([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	got, err := s.share(outside, odd)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(plain) == 0 {
		t.Error("share(y, r=1) equals y^k on an element outside the subgroup: the exponent was not k + r·q")
	}
	if _, err := s.share(y, failingReader{}); err == nil {
		t.Error("share computed without its blinding draw")
	}
}

// share is the only code in the package that reads the sender's exponent.
func TestOnlyShareReadsTheExponent(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for _, file := range pkgs["dlkem"].Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "k" {
					return true
				}
				reads++
				if fn.Name.Name != "share" {
					t.Errorf("%s: %s reads the exponent; only share may",
						fset.Position(sel.Pos()), fn.Name.Name)
				}
				return true
			})
		}
	}
	if reads == 0 {
		t.Error("found no read of the exponent at all — the field was renamed and this test checks nothing")
	}
}
