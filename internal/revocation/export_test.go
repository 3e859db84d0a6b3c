package revocation

// The signed-filter cache contract: one signature per filter state,
// never an artefact older than the filter, and the wire encoding.

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/fuse"
	"p2drm/internal/license"
)

var exportNow = time.Date(2004, 9, 1, 12, 0, 0, 0, time.UTC)

// mustExport exports, verifies and returns the artefact with its filter.
func mustExport(t *testing.T, l *List, sgn *rsablind.Signer, now time.Time) (*SignedFilter, *fuse.Filter) {
	t.Helper()
	sf, err := l.ExportFilter(sgn, now)
	if err != nil {
		t.Fatal(err)
	}
	f, err := VerifyFilter(sgn.Public(), sf)
	if err != nil {
		t.Fatal(err)
	}
	return sf, f
}

func TestExportFilterCachedUntilMutation(t *testing.T) {
	l := memList(t)
	sgn := testSigner(t)
	l.Add(newSerial(t))

	first, _ := mustExport(t, l, sgn, exportNow)
	wire, err := l.ExportFilterWire(sgn, exportNow)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, first.Marshal()) {
		t.Error("wire export differs from the artefact's encoding")
	}
	for i := 0; i < 20; i++ {
		sf, _ := mustExport(t, l, sgn, exportNow.Add(time.Duration(i)*time.Second))
		if sf != first {
			t.Fatalf("export %d: new artefact for an unchanged filter", i)
		}
	}
	if cached, signed := l.ExportStats(); signed != 1 || cached != 21 {
		t.Errorf("ExportStats = %d cached, %d signed; want 21, 1", cached, signed)
	}

	// Each way the filter changes cuts a new artefact holding the change.
	mutations := []struct {
		name   string
		mutate func() []license.Serial
	}{
		{"TryAdd", func() []license.Serial {
			s := newSerial(t)
			if fresh, err := l.TryAdd(s); err != nil || !fresh {
				t.Fatalf("TryAdd = %v, %v", fresh, err)
			}
			return []license.Serial{s}
		}},
		{"AddBatch", func() []license.Serial {
			batch := []license.Serial{newSerial(t), newSerial(t)}
			if err := l.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
			return batch
		}},
	}
	prev := first
	for i, m := range mutations {
		added := m.mutate()
		sf, f := mustExport(t, l, sgn, exportNow)
		if sf == prev {
			t.Fatalf("%s: cached artefact returned after the filter changed", m.name)
		}
		for _, s := range added {
			if !f.Contains(s[:]) {
				t.Errorf("%s: next export misses the new serial", m.name)
			}
		}
		if _, got := l.ExportStats(); got != uint64(i+2) {
			t.Errorf("%s: %d signatures so far, want %d", m.name, got, i+2)
		}
		if again, _ := mustExport(t, l, sgn, exportNow); again != sf {
			t.Errorf("%s: second export after it signed again", m.name)
		}
		prev = sf
	}

	// A revocation that loses (serial already present) changes nothing.
	s := newSerial(t)
	l.Add(s)
	sf, _ := mustExport(t, l, sgn, exportNow)
	if fresh, _ := l.TryAdd(s); fresh {
		t.Fatal("second TryAdd fresh")
	}
	if again, _ := mustExport(t, l, sgn, exportNow); again != sf {
		t.Error("losing TryAdd invalidated the artefact")
	}
}

func TestExportFilterSignerAndAge(t *testing.T) {
	l := memList(t)
	sgn := testSigner(t)
	l.Add(newSerial(t))
	first, _ := mustExport(t, l, sgn, exportNow.Add(500*time.Millisecond))
	if !first.IssuedAt.Equal(exportNow) {
		t.Errorf("IssuedAt = %s, want the whole second %s", first.IssuedAt, exportNow)
	}

	if sf, _ := mustExport(t, l, sgn, exportNow.Add(filterMaxAge)); sf != first {
		t.Error("re-signed inside the age bound")
	}
	aged, _ := mustExport(t, l, sgn, exportNow.Add(filterMaxAge+time.Second))
	if aged == first || !aged.IssuedAt.Equal(exportNow.Add(filterMaxAge+time.Second)) {
		t.Errorf("past the age bound: IssuedAt = %s, same artefact = %v", aged.IssuedAt, aged == first)
	}

	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	other, err := rsablind.NewSigner(key)
	if err != nil {
		t.Fatal(err)
	}
	if sf, _ := mustExport(t, l, other, aged.IssuedAt); sf == aged {
		t.Error("artefact of another signer returned")
	}

	// A clock reading before the cached artefact gets its own artefact at
	// that time and leaves the cache alone.
	latest, _ := mustExport(t, l, sgn, aged.IssuedAt)
	past, _ := mustExport(t, l, sgn, exportNow.Add(-time.Hour))
	if !past.IssuedAt.Equal(exportNow.Add(-time.Hour)) {
		t.Errorf("IssuedAt = %s for a clock an hour back", past.IssuedAt)
	}
	if sf, _ := mustExport(t, l, sgn, aged.IssuedAt); sf != latest {
		t.Error("an export with an earlier clock displaced the cached artefact")
	}
}

// 32 downloaders against 4 revokers: every artefact verifies, holds every
// serial acknowledged before its export began, and one downloader never
// sees IssuedAt go backwards.
func TestExportFilterConcurrentStrictFreshness(t *testing.T) {
	l := memList(t)
	sgn := testSigner(t)
	const revokers, exporters, perExporter = 4, 32, 12

	var (
		mu    sync.Mutex
		acked []license.Serial // serials whose TryAdd has returned
	)
	var exportsDone atomic.Bool
	var revoking sync.WaitGroup
	for r := 0; r < revokers; r++ {
		revoking.Add(1)
		go func() {
			defer revoking.Done()
			for !exportsDone.Load() {
				s, err := license.NewSerial()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := l.TryAdd(s); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				acked = append(acked, s)
				mu.Unlock()
				time.Sleep(200 * time.Microsecond) // leave the exporters some unchanged states to hit
			}
		}()
	}
	var exporting sync.WaitGroup
	for e := 0; e < exporters; e++ {
		exporting.Add(1)
		go func() {
			defer exporting.Done()
			var last time.Time
			for i := 0; i < perExporter; i++ {
				mu.Lock()
				want := acked[:len(acked):len(acked)]
				mu.Unlock()
				sf, err := l.ExportFilter(sgn, time.Now())
				if err != nil {
					t.Error(err)
					return
				}
				f, err := VerifyFilter(sgn.Public(), sf)
				if err != nil {
					t.Error(err)
					return
				}
				for _, s := range want {
					if !f.Contains(s[:]) {
						t.Errorf("export misses a serial acknowledged before it began")
						return
					}
				}
				if sf.IssuedAt.Before(last) {
					t.Errorf("IssuedAt went back from %s to %s", last, sf.IssuedAt)
					return
				}
				last = sf.IssuedAt
			}
		}()
	}
	exporting.Wait()
	exportsDone.Store(true)
	revoking.Wait()

	cached, signed := l.ExportStats()
	if cached+signed != exporters*perExporter {
		t.Errorf("%d cached + %d signed, want %d exports", cached, signed, exporters*perExporter)
	}
	if states := uint64(len(acked)) + 1; signed > states {
		t.Errorf("%d signatures for %d filter states", signed, states)
	}
	t.Logf("%d revocations beside %d exports: %d cached, %d signed", len(acked), cached+signed, cached, signed)
}

// TestFalsePositiveClearsOnTheNextCut: an honest serial that one cut
// tests positive is negative in a later one, because each cut has a salt
// of its own. The later cuts come past filterMaxAge of an unchanged
// list, so they have the first one's geometry and only the salt
// differs. A later cut is positive for the serial with probability
// 2⁻¹⁴, independently of the cuts before it, so all falsePositiveCuts of
// them positive — this test failing on correct code — has probability
// 2⁻⁴² ≈ 2·10⁻¹³.
func TestFalsePositiveClearsOnTheNextCut(t *testing.T) {
	const falsePositiveCuts = 3
	l := memList(t)
	sgn := testSigner(t)
	revoked := make([]license.Serial, 1000)
	for i := range revoked {
		revoked[i] = detSerial(i)
	}
	if err := l.AddBatch(revoked); err != nil {
		t.Fatal(err)
	}
	_, first := mustExport(t, l, sgn, exportNow)
	honest := falsePositive(t, l, first)

	now := exportNow
	for cut := 1; ; cut++ {
		if cut > falsePositiveCuts {
			t.Fatalf("%d later cuts all test the honest serial positive", falsePositiveCuts)
		}
		now = now.Add(filterMaxAge + time.Second)
		_, f := mustExport(t, l, sgn, now)
		if f.SegmentLength() != first.SegmentLength() || f.SegmentCount() != first.SegmentCount() ||
			f.Count() != first.Count() || !f.Contains(revoked[0][:]) {
			t.Fatal("a later cut of the unchanged list differs in geometry or misses a revoked serial")
		}
		if !f.Contains(honest[:]) {
			t.Logf("cleared by cut %d", cut)
			break
		}
	}
}

// falsePositive searches random serials for one f tests positive that l
// does not hold. At f's rate of 2⁻¹⁴ the search takes about 1.6·10⁴
// tries; 10⁷ without one has probability e⁻⁶¹⁰.
func falsePositive(t *testing.T, l *List, f *fuse.Filter) license.Serial {
	t.Helper()
	for i := 0; i < 10_000_000; i++ {
		s := newSerial(t)
		if f.Contains(s[:]) && !l.Contains(s) {
			return s
		}
	}
	t.Fatal("no false positive in 10⁷ serials")
	return license.Serial{}
}

func TestSignedFilterWire(t *testing.T) {
	l := memList(t)
	sgn := testSigner(t)
	l.Add(newSerial(t))
	sf, _ := mustExport(t, l, sgn, exportNow)

	wire := sf.Marshal()
	if want := signedFilterHeader + len(sf.Sig) + len(sf.Filter); len(wire) != want {
		t.Fatalf("wire is %d bytes, want %d", len(wire), want)
	}
	got, err := ParseSignedFilter(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IssuedAt.Equal(sf.IssuedAt) || !bytes.Equal(got.Sig, sf.Sig) || !bytes.Equal(got.Filter, sf.Filter) {
		t.Error("parsed artefact differs from the exported one")
	}
	if _, err := VerifyFilter(sgn.Public(), got); err != nil {
		t.Errorf("parsed artefact does not verify: %v", err)
	}

	for name, data := range map[string][]byte{
		"empty":            nil,
		"short header":     wire[:signedFilterHeader-1],
		"sig past the end": wire[:signedFilterHeader+len(sf.Sig)-1],
	} {
		if _, err := ParseSignedFilter(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Framing cannot tell trailing bytes from filter bytes; the signature does.
	long, err := ParseSignedFilter(append(append([]byte(nil), wire...), 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyFilter(sgn.Public(), long); err == nil {
		t.Error("artefact with a trailing byte verified")
	}
}

// Signatures under the earlier tags no longer verify: v1 (tag ‖ ts ‖
// whole filter) and v2 (tag ‖ ts ‖ SHA-256(filter), over unsalted
// filters) over today's filter, and a v3 artefact (tag ‖ ts ‖
// SHA-256(filter) over a salted Bloom filter), whose signature does not
// cover the v4 tag and whose encoding is no fuse filter.
func TestV1FilterSignatureRejected(t *testing.T) {
	l := memList(t)
	sgn := testSigner(t)
	l.Add(newSerial(t))
	sf, _ := mustExport(t, l, sgn, exportNow)

	// A v3 Bloom encoding, m[8] | k[4] | n[8] | salt[16] | words: 64
	// bits, 2 hashes, 1 element.
	bloomV3 := make([]byte, 20+16+8)
	binary.BigEndian.PutUint64(bloomV3[0:8], 64)
	binary.BigEndian.PutUint32(bloomV3[8:12], 2)
	binary.BigEndian.PutUint64(bloomV3[12:20], 1)
	binary.BigEndian.PutUint64(bloomV3[len(bloomV3)-8:], 1<<3|1<<41)
	if _, err := fuse.Unmarshal(bloomV3); err == nil {
		t.Fatal("a Bloom encoding decodes as a fuse filter")
	}

	fuseDigest, bloomDigest := sha256.Sum256(sf.Filter), sha256.Sum256(bloomV3)
	for _, old := range []struct {
		tag          string
		filter, body []byte
	}{
		{"p2drm/revfilter/v1", sf.Filter, sf.Filter},
		{"p2drm/revfilter/v2", sf.Filter, fuseDigest[:]},
		{"p2drm/revfilter/v3", sf.Filter, fuseDigest[:]},
		{"p2drm/revfilter/v3", bloomV3, bloomDigest[:]},
	} {
		msg := append([]byte(old.tag), binary.BigEndian.AppendUint64(nil, uint64(exportNow.Unix()))...)
		sig, err := sgn.Sign(append(msg, old.body...))
		if err != nil {
			t.Fatal(err)
		}
		artefact := &SignedFilter{Filter: old.filter, IssuedAt: sf.IssuedAt, Sig: sig}
		if _, err := VerifyFilter(sgn.Public(), artefact); err == nil {
			t.Errorf("%s signature over a %d-byte filter accepted", old.tag, len(old.filter))
		}
	}
}

// FuzzParseSignedFilter: hostile bytes either fail to parse or parse to
// a value that encodes back to exactly those bytes, and whatever filter
// they carry goes through fuse.Unmarshal and a lookup without a panic.
func FuzzParseSignedFilter(f *testing.F) {
	salt := bytes.Repeat([]byte{0x5a}, 16)
	ff, err := fuse.Build([][]byte{[]byte("serial")}, bytes.NewReader(salt))
	if err != nil {
		f.Fatal(err)
	}
	good := (&SignedFilter{Filter: ff.Marshal(), IssuedAt: exportNow, Sig: []byte("signature")}).Marshal()
	f.Add(good)
	f.Add(good[:signedFilterHeader-1])                      // truncated length
	f.Add(good[:signedFilterHeader+4])                      // sig length past the end
	f.Add(good[:signedFilterHeader+len("signature")])       // empty filter
	f.Add(append(append([]byte(nil), good...), 0xde, 0xad)) // trailing garbage
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := ParseSignedFilter(data)
		if err != nil {
			return
		}
		if !bytes.Equal(sf.Marshal(), data) {
			t.Fatalf("re-encoding differs from the %d parsed bytes", len(data))
		}
		if filter, err := fuse.Unmarshal(sf.Filter); err == nil {
			filter.Contains([]byte("serial"))
		}
	})
}

// verifySerials is the list size BenchmarkT1_VerifyFilter and
// TestVerifyFilterReadsInPlace use: revstorm's preload.
const verifySerials = 100_000

// signedWire returns the wire form of a filter of serials 0..n-1 signed
// by sgn.
func signedWire(tb testing.TB, sgn *rsablind.Signer, n int) []byte {
	tb.Helper()
	l := memList(tb)
	batch := make([]license.Serial, 0, 1000)
	for i := 0; i < n; i++ {
		batch = append(batch, detSerial(i))
		if len(batch) == cap(batch) || i == n-1 {
			if err := l.AddBatch(batch); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	wire, err := l.ExportFilterWire(sgn, exportNow)
	if err != nil {
		tb.Fatal(err)
	}
	return wire
}

// TestVerifyFilterReadsInPlace: parsing and verifying a downloaded filter
// of 100 000 serials allocates a small fraction of its bytes, and the
// filter it returns reads the downloaded bytes.
func TestVerifyFilterReadsInPlace(t *testing.T) {
	sgn := testSigner(t)
	wire := signedWire(t, sgn, verifySerials)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sf, err := ParseSignedFilter(wire)
	if err != nil {
		t.Fatal(err)
	}
	f, err := VerifyFilter(sgn.Public(), sf)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(sf.Filter))/16 {
		t.Errorf("parse and verify allocated %d bytes for a %d-byte filter", grew, len(sf.Filter))
	}
	if &f.Marshal()[0] != &wire[len(wire)-len(sf.Filter)] {
		t.Error("the verified filter does not read the downloaded bytes")
	}
	if s := detSerial(verifySerials - 1); !f.Contains(s[:]) {
		t.Error("the verified filter misses a revoked serial")
	}
}

// BenchmarkT1_VerifyFilter times what a device does with a downloaded
// filter of 100 000 serials before its first answer: parse the signed
// artefact, verify its signature (one SHA-256 pass over the filter and
// one RSA verification), decode the filter and look up one serial.
func BenchmarkT1_VerifyFilter(b *testing.B) {
	sgn := testSigner(b)
	wire := signedWire(b, sgn, verifySerials)
	pub := sgn.Public()
	serial := detSerial(verifySerials / 2)
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sf, err := ParseSignedFilter(wire)
		if err != nil {
			b.Fatal(err)
		}
		f, err := VerifyFilter(pub, sf)
		if err != nil {
			b.Fatal(err)
		}
		if !f.Contains(serial[:]) {
			b.Fatal("filter misses a revoked serial")
		}
	}
}
