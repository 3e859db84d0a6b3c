package bloom

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
)

// testSalt is the salt of the filters under test: fixed, so the golden
// vectors and fuzz seeds stay put.
var testSalt = [SaltSize]byte{0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xab, 0xac, 0xad, 0xae, 0xaf}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3, testSalt); err == nil {
		t.Error("accepted m=0")
	}
	if _, err := New(100, 0, testSalt); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewWithEstimates(0, 0.01, testSalt); err == nil {
		t.Error("accepted n=0")
	}
	for _, fp := range []float64{0, 1, -0.5, 2} {
		if _, err := NewWithEstimates(100, fp, testSalt); err == nil {
			t.Errorf("accepted fp=%v", fp)
		}
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f, err := NewWithEstimates(1000, 0.01, testSalt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		f.Add([]byte(fmt.Sprintf("serial-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !f.Contains([]byte(fmt.Sprintf("serial-%d", i))) {
			t.Fatalf("false negative for serial-%d", i)
		}
	}
	if f.Count() != 1000 {
		t.Errorf("Count = %d, want 1000", f.Count())
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n = 5000
	const target = 0.01
	f, err := NewWithEstimates(n, target, testSalt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f.Add([]byte(fmt.Sprintf("in-%d", i)))
	}
	falsePos := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Contains([]byte(fmt.Sprintf("out-%d", i))) {
			falsePos++
		}
	}
	rate := float64(falsePos) / probes
	// Allow 3x headroom over the target: the estimate is asymptotic.
	if rate > 3*target {
		t.Errorf("observed FP rate %.4f far above target %.4f", rate, target)
	}
	est := f.EstimatedFalsePositiveRate()
	if est <= 0 || est > 3*target {
		t.Errorf("estimated FP rate %.4f implausible", est)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f, _ := New(1024, 4, testSalt)
	if f.Contains([]byte("anything")) {
		t.Error("empty filter claims membership")
	}
	if f.EstimatedFalsePositiveRate() != 0 {
		t.Error("empty filter has nonzero FP estimate")
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	f, _ := NewWithEstimates(100, 0.02, testSalt)
	for i := 0; i < 100; i++ {
		f.Add([]byte(fmt.Sprintf("k%d", i)))
	}
	data := f.Marshal()
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.m != f.m || back.k != f.k || back.n != f.n || back.salt != f.salt {
		t.Error("header fields differ after roundtrip")
	}
	for i := 0; i < 100; i++ {
		if !back.Contains([]byte(fmt.Sprintf("k%d", i))) {
			t.Fatalf("false negative after roundtrip: k%d", i)
		}
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("accepted nil")
	}
	if _, err := Unmarshal(make([]byte, headerSize-1)); err == nil {
		t.Error("accepted short header")
	}
	f, _ := New(128, 2, testSalt)
	data := f.Marshal()
	if _, err := Unmarshal(data[:len(data)-1]); err == nil {
		t.Error("accepted truncated body")
	}
	// A bit count near 2^64 must not wrap to "no words" and index past
	// the end on the first lookup.
	huge := append([]byte(nil), data[:headerSize]...)
	binary.BigEndian.PutUint64(huge[0:8], ^uint64(0))
	if f, err := Unmarshal(huge); err == nil {
		f.Contains([]byte("x"))
		t.Error("accepted a 2^64-bit filter with no words")
	}
	greedy := append([]byte(nil), data...)
	binary.BigEndian.PutUint32(greedy[8:12], 129)
	if _, err := Unmarshal(greedy); err == nil {
		t.Error("accepted more hash functions than bits")
	}
}

func TestAccessors(t *testing.T) {
	f, _ := New(777, 5, testSalt)
	if f.Bits() != 777 || f.Hashes() != 5 {
		t.Errorf("accessors: bits=%d hashes=%d", f.Bits(), f.Hashes())
	}
}

// Property: anything added is always found (no false negatives, the
// filter's defining invariant).
func TestQuickNoFalseNegatives(t *testing.T) {
	f, _ := NewWithEstimates(2000, 0.05, testSalt)
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(8))}
	check := func(key []byte) bool {
		f.Add(key)
		return f.Contains(key)
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// Property: marshal/unmarshal preserves membership answers exactly.
func TestQuickMarshalPreservesMembership(t *testing.T) {
	f, _ := NewWithEstimates(500, 0.01, testSalt)
	keys := make([][]byte, 0, 50)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		k := make([]byte, 1+r.Intn(20))
		r.Read(k)
		keys = append(keys, k)
		f.Add(k)
	}
	back, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		probe := make([]byte, 1+r.Intn(20))
		r.Read(probe)
		if f.Contains(probe) != back.Contains(probe) {
			t.Fatal("membership answer changed after roundtrip")
		}
	}
	for _, k := range keys {
		if !back.Contains(k) {
			t.Fatal("added key lost after roundtrip")
		}
	}
}

// goldenInput is the n-byte input of the index golden vectors.
func goldenInput(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(7*i + 1)
	}
	return data
}

// TestIndexesGolden pins index derivation to FNV-128a of salt ‖ data as
// hash/fnv computes it. The filter is a wire format: a device decodes the
// provider's filter with this package, so h1 and h2 — and with them every
// bit — must never drift. The digests below are hash/fnv's output under
// testSalt, and the test recomputes them with it too.
func TestIndexesGolden(t *testing.T) {
	golden := []struct {
		n      int
		digest string // FNV-128a of testSalt ‖ goldenInput(n), h1 ‖ h2 before h2's low bit is set
	}{
		{0, "a45aab70d24711ffee44adef3f88277d"},
		{1, "2ad07bfa397325ea2e8205632c889594"},
		{32, "e76b1feff7cdc84ed1b284437c4fc27d"},
		{70, "7dddcc532bb024cc3c333cda0a597274"},
	}
	f, _ := New(1024, 4, testSalt)
	for _, g := range golden {
		data := goldenInput(g.n)
		h := fnv.New128a()
		h.Write(testSalt[:])
		h.Write(data)
		if got := hex.EncodeToString(h.Sum(nil)); got != g.digest {
			t.Fatalf("hash/fnv FNV-128a of %d bytes = %s, golden %s", g.n, got, g.digest)
		}
		sum, _ := hex.DecodeString(g.digest)
		want1 := binary.BigEndian.Uint64(sum[:8])
		want2 := binary.BigEndian.Uint64(sum[8:]) | 1
		if h1, h2 := f.indexes(data); h1 != want1 || h2 != want2 {
			t.Errorf("indexes(%d bytes) = %016x %016x, want %016x %016x", g.n, h1, h2, want1, want2)
		}
	}
}

// TestAddContainsAllocateNothing: the index derivation hashes inline.
func TestAddContainsAllocateNothing(t *testing.T) {
	f, _ := NewWithEstimates(1000, 0.01, testSalt)
	data := goldenInput(20)
	if n := testing.AllocsPerRun(100, func() { f.Add(data) }); n != 0 {
		t.Errorf("Add allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { f.Contains(data) }); n != 0 {
		t.Errorf("Contains allocates %v times per call", n)
	}
}

// FuzzUnmarshal: hostile bytes either fail to decode or give a filter
// that encodes back to exactly those bytes and answers a lookup.
func FuzzUnmarshal(f *testing.F) {
	good, _ := NewWithEstimates(8, 0.01, testSalt)
	good.Add([]byte("serial"))
	data := good.Marshal()
	f.Add(data)
	f.Add(data[:headerSize-1])
	f.Add(data[:len(data)-1])
	f.Add(append(bytes.Repeat([]byte{0xff}, 8), data[8:headerSize]...)) // 2^64-1 bits, no words
	f.Fuzz(func(t *testing.T, data []byte) {
		filter, err := Unmarshal(data)
		if err != nil {
			return
		}
		if !bytes.Equal(filter.Marshal(), data) {
			t.Fatalf("re-encoding differs from the %d decoded bytes", len(data))
		}
		filter.Contains([]byte("serial"))
	})
}
