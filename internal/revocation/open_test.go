package revocation

// Open over a list that already outgrew DefaultFilterCapacity: one read,
// one filter at its final size, the bytes a rebuild would cut.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

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

// The list Open is tested on: detSerial(0..openSerials-1). Once at its
// design point it serves a filter of openedFilterBytes whose SHA-256 is
// openedFilterSHA256 — the bytes the background rebuild that Open used to
// start produced, so m, k and every bit of the device-facing artefact
// stay put.
const (
	openSerials        = DefaultFilterCapacity * 3 / 2
	openedFilterCap    = 2 * DefaultFilterCapacity
	openedFilterBytes  = 314_108
	openedFilterSHA256 = "538a128d9ce54d933590fbe879780c8a7ce712b19a9353808771f0c254a8c31d"
)

// TestOpenBuildsTheSizedFilterOnce: Open over 1.5 × DefaultFilterCapacity
// recorded serials returns with the filter at its final size and no
// rebuild in flight, and that filter is the one a forced Rebuild cuts.
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
	l.mu.RLock()
	inFlight := l.rebuilding || l.rebuildDone != nil
	opened := l.filter.Marshal()
	l.mu.RUnlock()
	if inFlight {
		t.Fatal("Open returned with a filter rebuild in flight")
	}
	if g := l.Generation(); g != 0 {
		t.Fatalf("Generation() = %d after Open, want 0", g)
	}
	if c := l.FilterCapacity(); c != openedFilterCap {
		t.Errorf("FilterCapacity() = %d, want %d", c, openedFilterCap)
	}
	if l.Len() != openSerials {
		t.Errorf("Len() = %d, want %d", l.Len(), openSerials)
	}
	if len(opened) != openedFilterBytes {
		t.Errorf("filter is %d bytes, want %d", len(opened), openedFilterBytes)
	}
	if sum := sha256.Sum256(opened); hex.EncodeToString(sum[:]) != openedFilterSHA256 {
		t.Errorf("opened filter SHA-256 = %x, want %s", sum, openedFilterSHA256)
	}

	if g := l.Rebuild(); g != 1 {
		t.Fatalf("forced Rebuild: generation %d, want 1", g)
	}
	l.mu.RLock()
	rebuilt := l.filter.Marshal()
	filter := l.filter
	l.mu.RUnlock()
	if string(rebuilt) != string(opened) {
		t.Error("Open's filter differs from the one a forced Rebuild cuts")
	}
	for i := 0; i < openSerials; i++ {
		if s := detSerial(i); !filter.Contains(s[:]) {
			t.Fatalf("serial %d missing from the filter", i)
		}
	}
}

// BenchmarkT1_RevocationOpen times Open over 100 000 recorded serials on
// a durable store opened the way the daemon opens it: the read of the
// list's keys and the one filter build.
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
		l.waitRebuild()
	}
}
