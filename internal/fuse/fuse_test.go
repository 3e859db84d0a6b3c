package fuse

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
)

// testSalt is the salt of the golden vector and the fuzz seeds: fixed, so
// they stay put.
var testSalt = [saltSize]byte{0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xab, 0xac, 0xad, 0xae, 0xaf}

// testKeys returns n distinct 32-byte keys, serial-sized, drawn from seed.
func testKeys(n int, seed int64) [][]byte {
	r := rand.New(rand.NewSource(seed))
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = make([]byte, 32)
		r.Read(keys[i])
	}
	return keys
}

// mustBuild builds keys under salts drawn from a source seeded with seed.
func mustBuild(tb testing.TB, keys [][]byte, seed int64) *Filter {
	tb.Helper()
	f, err := Build(keys, rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// TestNoFalseNegatives: every key a filter is built from tests positive,
// at the sizes where the geometry rule changes shape (none, one, two,
// three keys) and at the revocation list's sizes.
func TestNoFalseNegatives(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1000, 70_000, 100_000} {
		keys := testKeys(n, int64(n))
		f := mustBuild(t, keys, 1)
		for i, k := range keys {
			if !f.Contains(k) {
				t.Fatalf("n=%d: false negative for key %d", n, i)
			}
		}
	}
}

// TestAccessors: a decoded filter reports the key count it was built from
// and the geometry Geometry gives that count.
func TestAccessors(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1000, 100_000} {
		f, err := Unmarshal(mustBuild(t, testKeys(n, int64(n)), 1).Marshal())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		segLen, segCount := Geometry(uint64(n))
		if f.Count() != uint64(n) || f.SegmentLength() != segLen || f.SegmentCount() != segCount {
			t.Errorf("n=%d: decoded n=%d, %d segments of %d; want %d segments of %d",
				n, f.Count(), f.SegmentCount(), f.SegmentLength(), segCount, segLen)
		}
	}
}

// TestMarshalRoundtrip: an encoding is its header plus the packed cells,
// it decodes to the same bytes, and the decoded filter holds every key.
func TestMarshalRoundtrip(t *testing.T) {
	keys := testKeys(1000, 27)
	built := mustBuild(t, keys, 28)
	enc := built.Marshal()
	segLen, segCount := Geometry(uint64(len(keys)))
	if want := headerSize + packedLen(cells(segLen, segCount)); uint64(len(enc)) != want {
		t.Errorf("%d-byte encoding, want %d", len(enc), want)
	}
	f, err := Unmarshal(bytes.Clone(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Marshal(), enc) {
		t.Error("the decoded filter re-encodes to different bytes")
	}
	for i, k := range keys {
		if !f.Contains(k) {
			t.Fatalf("false negative for key %d after the roundtrip", i)
		}
	}
}

// distinct returns keys without repeats: a set with a key twice never
// peels.
func distinct(keys [][]byte) [][]byte {
	seen := make(map[string]bool, len(keys))
	out := keys[:0:0]
	for _, k := range keys {
		if !seen[string(k)] {
			seen[string(k)] = true
			out = append(out, k)
		}
	}
	return out
}

// Property: any set of keys, of any lengths, builds, and every key in it
// tests positive (no false negatives, the filter's defining invariant).
func TestQuickNoFalseNegatives(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(29))}
	r := rand.New(rand.NewSource(30))
	check := func(keys [][]byte) bool {
		keys = distinct(keys)
		f, err := Build(keys, r)
		if err != nil {
			t.Log(err)
			return false
		}
		for _, k := range keys {
			if !f.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// Property: a filter decoded from its encoding gives the built filter's
// answer to every probe, member or not.
func TestQuickMarshalPreservesMembership(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(31))}
	r := rand.New(rand.NewSource(32))
	check := func(keys, probes [][]byte) bool {
		keys = distinct(keys)
		built, err := Build(keys, r)
		if err != nil {
			t.Log(err)
			return false
		}
		back, err := Unmarshal(bytes.Clone(built.Marshal()))
		if err != nil {
			t.Log(err)
			return false
		}
		for _, p := range append(probes, keys...) {
			if built.Contains(p) != back.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestEmptyFilterContainsNothing: the filter of no keys has no cells, and
// no probe tests positive in it.
func TestEmptyFilterContainsNothing(t *testing.T) {
	empty := mustBuild(t, nil, 2)
	if len(empty.Marshal()) != headerSize {
		t.Errorf("the filter of no keys is %d bytes, want its %d-byte header", len(empty.Marshal()), headerSize)
	}
	probe := make([]byte, 32)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1_000_000; i++ {
		r.Read(probe)
		if empty.Contains(probe) {
			t.Fatalf("the filter of no keys contains probe %d", i)
		}
	}
}

// TestFalsePositiveRateNearTarget measures the rate over 10⁶ keys outside a
// 100 000-key filter. The design rate is 2⁻¹⁴ ≈ 6.1·10⁻⁵, so the count
// is Poisson with mean ≈ 61; the bound of 10⁻⁴ (100 hits) is about five
// standard deviations above it. Keys and salt are fixed, so the count is.
func TestFalsePositiveRateNearTarget(t *testing.T) {
	f := mustBuild(t, testKeys(100_000, 4), 5)
	const probes = 1_000_000
	hits := 0
	probe := make([]byte, 32)
	r := rand.New(rand.NewSource(6))
	for i := 0; i < probes; i++ {
		r.Read(probe)
		if f.Contains(probe) {
			hits++
		}
	}
	rate := float64(hits) / probes
	t.Logf("%d false positives in %d probes: %.2e (design 2⁻¹⁴ ≈ 6.1e-05)", hits, probes, rate)
	if rate >= 1e-4 {
		t.Errorf("false-positive rate %.2e, want below 10⁻⁴", rate)
	}
}

// goldenInput is the 32-byte key of the golden vector.
func goldenInput() []byte {
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(7*i + 1)
	}
	return data
}

// TestIndexesGolden pins the wire format's derivation: salt ‖ key → hash →
// three cells and fingerprint. A device reads the provider's filter with
// this package and must look in the very cells the provider set, so none
// of these may drift. The FNV-1a-64 digest is recomputed with hash/fnv.
func TestIndexesGolden(t *testing.T) {
	const n = 1000
	segLen, segCount := Geometry(n)
	if segLen != 128 || segCount != 9 {
		t.Fatalf("Geometry(%d) = %d segments of %d, want 9 of 128", n, segCount, segLen)
	}
	enc := make([]byte, headerSize+packedLen(cells(segLen, segCount)))
	binary.BigEndian.PutUint64(enc[0:8], n)
	binary.BigEndian.PutUint32(enc[8:12], segLen)
	binary.BigEndian.PutUint32(enc[12:16], segCount)
	copy(enc[16:], testSalt[:])
	f, err := Unmarshal(enc)
	if err != nil {
		t.Fatal(err)
	}

	data := goldenInput()
	d := fnv.New64a()
	d.Write(testSalt[:])
	d.Write(data)
	const wantDigest, wantHash = 0x098faaf6ee230e35, 0x175f7b7f4e13dd7b
	if got := d.Sum64(); got != wantDigest {
		t.Errorf("hash/fnv FNV-1a-64 of salt ‖ key = %#016x, golden %#016x", got, wantDigest)
	}
	h := f.hash(data)
	if h != wantHash || fmix64(wantDigest) != wantHash {
		t.Errorf("hash = %#016x, fmix64(golden digest) = %#016x; golden %#016x", h, fmix64(wantDigest), wantHash)
	}
	if got, want := f.positions(h), [3]uint32{105, 237, 274}; got != want {
		t.Errorf("positions = %v, golden %v", got, want)
	}
	if got, want := fingerprint(h), uint16(0x2604); got != want {
		t.Errorf("fingerprint = %#04x, golden %#04x", got, want)
	}
}

// TestPackedFingerprints: every cell keeps its own 14 bits, whichever of
// the byte boundaries it straddles, in the little-endian bit order the
// encoding documents.
func TestPackedFingerprints(t *testing.T) {
	f := mustBuild(t, testKeys(3, 7), 8)
	c := uint32(cells(f.SegmentLength(), f.SegmentCount()))
	clear(f.fps)
	for i := uint32(0); i < c; i++ {
		f.set(i, uint16(i*0x2f1+0x155)&fingerprintMask)
	}
	for i := uint32(0); i < c; i++ {
		if got, want := f.at(i), uint16(i*0x2f1+0x155)&fingerprintMask; got != want {
			t.Fatalf("cell %d reads %#04x, want %#04x", i, got, want)
		}
	}
	f.set(0, fingerprintMask)
	if f.fps[0] != 0xff || f.fps[1]&0x3f != 0x3f {
		t.Errorf("cell 0 all ones packs as %08b %08b", f.fps[1], f.fps[0])
	}
}

// TestDuplicateKeysFail: a key twice never peels, so Build gives up after
// maxAttempts salts instead of looping, with an error.
func TestDuplicateKeysFail(t *testing.T) {
	for _, n := range []int{2, 1000} {
		keys := testKeys(n, 9)
		keys[n-1] = keys[0]
		src := &countingReader{r: rand.New(rand.NewSource(10))}
		if f, err := Build(keys, src); err == nil {
			t.Fatalf("n=%d with a duplicate: built a %d-key filter", n, f.Count())
		}
		if want := maxAttempts * saltSize; src.read != want {
			t.Errorf("n=%d: %d salt bytes drawn, want %d (%d attempts)", n, src.read, want, maxAttempts)
		}
	}
}

type countingReader struct {
	r    *rand.Rand
	read int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.read += len(p)
	return c.r.Read(p)
}

// TestBuildSaltsDiffer: two builds of one set draw their own salts, so
// their fingerprints differ.
func TestBuildSaltsDiffer(t *testing.T) {
	keys := testKeys(500, 11)
	a, b := mustBuild(t, keys, 12), mustBuild(t, keys, 13)
	if bytes.Equal(a.Marshal()[16:headerSize], b.Marshal()[16:headerSize]) {
		t.Error("two builds share a salt")
	}
	if bytes.Equal(a.Marshal(), b.Marshal()) {
		t.Error("two builds under different salts are byte-identical")
	}
}

// TestUnmarshalRejectsBadInput: an encoding whose geometry does not
// match its length, or is no geometry the format allows, is refused.
func TestUnmarshalRejectsBadInput(t *testing.T) {
	good := mustBuild(t, testKeys(100, 14), 15).Marshal()
	empty := mustBuild(t, nil, 16).Marshal()
	edit := func(data []byte, at int, v uint32) []byte {
		out := append([]byte(nil), data...)
		binary.BigEndian.PutUint32(out[at:], v)
		return out
	}
	withN := func(data []byte, n uint64) []byte {
		out := append([]byte(nil), data...)
		binary.BigEndian.PutUint64(out, n)
		return out
	}
	for name, data := range map[string][]byte{
		"nil":                    nil,
		"short header":           good[:headerSize-1],
		"truncated":              good[:len(good)-1],
		"trailing byte":          append(append([]byte(nil), good...), 0),
		"segment length not 2^k": edit(good, 8, 24),
		"segment length zero":    edit(good, 8, 0),
		"segment length > 2^18":  edit(edit(good, 8, 1<<19), 12, 0),
		"no segments":            edit(good, 12, 0),
		"more segments":          edit(good, 12, 1<<31),
		"more keys than cells":   withN(good, 1<<40),
		"empty with geometry":    edit(empty, 8, 4),
		"empty with cells":       append(append([]byte(nil), empty...), 0, 0),
		"keys, no geometry":      withN(empty, 1),
	} {
		if f, err := Unmarshal(data); err == nil {
			f.Contains([]byte("x"))
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestContainsAllocatesNothing: a lookup allocates nothing.
func TestContainsAllocatesNothing(t *testing.T) {
	f := mustBuild(t, testKeys(10_000, 17), 18)
	data := goldenInput()
	if n := testing.AllocsPerRun(100, func() { f.Contains(data) }); n != 0 {
		t.Errorf("Contains allocates %v times per call", n)
	}
}

// TestReadsInPlace: Unmarshal allocates the filter header alone, whatever
// the filter's size, and the decoded filter reads the bytes it was given.
func TestReadsInPlace(t *testing.T) {
	enc := mustBuild(t, testKeys(10_000, 17), 18).Marshal()
	var f *Filter
	if n := testing.AllocsPerRun(100, func() { f, _ = Unmarshal(enc) }); n != 1 {
		t.Errorf("Unmarshal allocates %v times per call, want 1", n)
	}
	if &f.Marshal()[0] != &enc[0] {
		t.Error("the decoded filter does not read the bytes it was given")
	}
}

// FuzzUnmarshal: hostile bytes either fail to decode, or decode to a
// filter whose lookups neither panic nor read past the encoding: the
// bytes are decoded from the front of a longer buffer, whose tail is
// poisoned, and must answer as an exact-length copy does.
func FuzzUnmarshal(f *testing.F) {
	var salts bytes.Buffer
	for i := 0; i < maxAttempts; i++ {
		salts.Write(testSalt[:])
	}
	for _, n := range []int{0, 1, 3, 40} {
		built, err := Build(testKeys(n, int64(n)), bytes.NewReader(salts.Bytes()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(built.Marshal())
	}
	good := mustBuild(f, testKeys(40, 19), 20).Marshal()
	f.Add(good[:headerSize-1])
	f.Add(good[:len(good)-1])
	f.Add(append(bytes.Repeat([]byte{0xff}, 16), good[16:]...)) // huge n and geometry
	probes := testKeys(64, 21)
	f.Fuzz(func(t *testing.T, data []byte) {
		exact, err := Unmarshal(bytes.Clone(data))
		if err != nil {
			return
		}
		padded := append(append([]byte(nil), data...), bytes.Repeat([]byte{0xa5}, 8)...)
		filter, err := Unmarshal(padded[:len(data)])
		if err != nil {
			t.Fatalf("decodes alone, not from a longer buffer: %v", err)
		}
		for i, p := range probes {
			if filter.Contains(p) != exact.Contains(p) {
				t.Fatalf("probe %d answers differently with bytes past the encoding", i)
			}
		}
	})
}

// BenchmarkContains times one lookup in a 100 000-key filter.
func BenchmarkContains(b *testing.B) {
	f := mustBuild(b, testKeys(100_000, 22), 23)
	probes := testKeys(1024, 24)
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if f.Contains(probes[i&1023]) {
			hits++
		}
	}
	sink = hits
}

// BenchmarkBuild times building a 100 000-key filter.
func BenchmarkBuild(b *testing.B) {
	keys := testKeys(100_000, 25)
	r := rand.New(rand.NewSource(26))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(keys, r); err != nil {
			b.Fatal(err)
		}
	}
}

var sink int
