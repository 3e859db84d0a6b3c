package revocation

// Open over a recorded list builds nothing; the first export cuts one
// filter sized to the exact count.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"time"

	"p2drm/internal/fuse"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
)

// detSerial is the i-th serial of a fixed set, so filter bytes can be
// pinned across builds.
func detSerial(i int) license.Serial {
	var s license.Serial
	sum := sha256.Sum256(binary.BigEndian.AppendUint64([]byte("p2drm/test/serial"), uint64(i)))
	copy(s[:], sum[:])
	return s
}

// writeSerials records serials 0..n-1 in the store at dir, 1 000 to a
// batch, and closes it.
func writeSerials(tb testing.TB, dir string, n int) {
	tb.Helper()
	st, err := kvstore.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	l, err := Open(st, uint64(n))
	if err != nil {
		tb.Fatal(err)
	}
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
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
}

// daemonWALOpts is how cmd/p2drmd opens its durable stores.
var daemonWALOpts = kvstore.Options{Sync: kvstore.SyncGroupCommit, CompactEvery: 30 * time.Second}

// openSerials is the size of the list Open is tested on.
const openSerials = 70_000

// TestOpenBuildsTheSizedFilterOnce: Open over recorded serials answers
// Contains from the store, and the first export cuts a filter that holds
// every serial, with the geometry fuse sizes for the exact count. A
// second cut has the same geometry and count under another salt.
func TestOpenBuildsTheSizedFilterOnce(t *testing.T) {
	dir := t.TempDir()
	writeSerials(t, dir, openSerials)
	st, err := kvstore.OpenWith(dir, daemonWALOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	l, err := Open(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != openSerials {
		t.Errorf("Len() = %d, want %d", l.Len(), openSerials)
	}
	if s := detSerial(openSerials - 1); !l.Contains(s) {
		t.Error("Contains misses a recorded serial")
	}
	if _, signed := l.ExportStats(); signed != 0 {
		t.Fatalf("%d cuts signed by Open, want 0", signed)
	}

	segLen, segCount := fuse.Geometry(openSerials)
	sgn := testSigner(t)
	first, f := mustExport(t, l, sgn, exportNow)
	if f.SegmentLength() != segLen || f.SegmentCount() != segCount || f.Count() != openSerials {
		t.Errorf("cut has %d segments of %d for n=%d, want %d of %d for n=%d",
			f.SegmentCount(), f.SegmentLength(), f.Count(), segCount, segLen, openSerials)
	}
	for i := 0; i < openSerials; i++ {
		if s := detSerial(i); !f.Contains(s[:]) {
			t.Fatalf("serial %d missing from the filter", i)
		}
	}

	if signed := l.Rebuild(); signed != 1 {
		t.Fatalf("Rebuild reports %d cuts signed, want 1", signed)
	}
	second, g := mustExport(t, l, sgn, exportNow)
	if g.SegmentLength() != f.SegmentLength() || g.SegmentCount() != f.SegmentCount() || g.Count() != f.Count() {
		t.Error("a second cut of the same list is sized differently")
	}
	if bytes.Equal(second.Filter, first.Filter) {
		t.Error("two cuts of the same list are byte-identical: the salt is not fresh")
	}
}

// BenchmarkT1_RevocationOpen times Open over 100 000 recorded serials on
// a durable store opened the way the daemon opens it, and the first cut:
// the read of the list's keys and the one filter build.
func BenchmarkT1_RevocationOpen(b *testing.B) {
	dir := b.TempDir()
	writeSerials(b, dir, 100_000)
	st, err := kvstore.OpenWith(dir, daemonWALOpts)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(st, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.cut(); err != nil {
			b.Fatal(err)
		}
	}
}
