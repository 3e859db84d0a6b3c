package kvstore

// Engine-level tests for the sharded-index, segmented-log store:
// segment rolling and ordered replay, incremental compaction (liveness,
// tombstone retention, segment deletion), stats, legacy migration, the
// background compactor, and a randomized replay-equivalence property
// with compaction steps interleaved.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestSegmentRollAndReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(segmentFiles(t, dir)); got < 3 {
		t.Fatalf("expected multiple segments, got %d", got)
	}
	st := s.Stats()
	if st.Segments < 3 || st.LiveKeys != n {
		t.Fatalf("Stats = %+v, want >=3 segments and %d live keys", st, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a DIFFERENT segment size: replay is layout-driven, not
	// option-driven.
	s2, err := OpenWith(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("Len after reopen = %d, want %d", s2.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := s2.Get([]byte(fmt.Sprintf("key-%03d", i)))
		if !ok || !bytes.Equal(v, []byte(fmt.Sprintf("val-%d", i))) {
			t.Fatalf("key-%03d = %q,%v after reopen", i, v, ok)
		}
	}
	if err := s2.Put([]byte("post"), []byte("roll")); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailOnlyInLastSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files := segmentFiles(t, dir)
	if len(files) < 2 {
		t.Fatalf("need >=2 segments, got %d", len(files))
	}

	// A torn tail on the LAST segment is recoverable.
	last := files[len(files)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xDE, 0xAD})
	f.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail in last segment must recover: %v", err)
	}
	if s2.Len() != 30 {
		t.Fatalf("Len = %d, want 30", s2.Len())
	}
	s2.Close()

	// Corruption inside a SEALED segment is a hard error: truncating
	// there would silently drop later segments' committed records.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open must refuse a corrupt sealed segment")
	}
}

func TestCompactStepIncremental(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Churn: every key overwritten many times, so early segments are
	// almost entirely dead.
	for round := 0; round < 20; round++ {
		for i := 0; i < 10; i++ {
			if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("r%d-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := s.Stats()
	if before.Segments < 3 {
		t.Fatalf("need several segments, got %d", before.Segments)
	}
	steps := 0
	for {
		did, err := s.CompactStep()
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
		steps++
	}
	after := s.Stats()
	if steps == 0 {
		t.Fatal("CompactStep never processed a segment")
	}
	if after.LoggedBytes >= before.LoggedBytes {
		t.Fatalf("incremental compaction did not shrink log: %d -> %d", before.LoggedBytes, after.LoggedBytes)
	}
	if after.Compactions != int64(steps) {
		t.Fatalf("Compactions = %d, want %d", after.Compactions, steps)
	}
	// All live data intact, store writable, state survives reopen.
	for i := 0; i < 10; i++ {
		v, ok := s.Get([]byte(fmt.Sprintf("k%d", i)))
		if !ok || !bytes.Equal(v, []byte(fmt.Sprintf("r19-%d", i))) {
			t.Fatalf("k%d = %q,%v after compaction", i, v, ok)
		}
	}
	if err := s.Put([]byte("post"), []byte("compact")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 11 {
		t.Fatalf("Len after reopen = %d, want 11", s2.Len())
	}
}

// TestTombstoneRetention drives the compactor's delete rules directly:
// a tombstone in a non-oldest segment survives compaction (it may still
// be killing puts in older segments), while fully dead segments are
// deleted outright — and the deleted key stays deleted across reopen.
func TestTombstoneRetention(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes 1: every record rolls into its own sealed segment.
	s, err := OpenWith(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put([]byte("a"), []byte("1")); err != nil { // segment 1
		t.Fatal(err)
	}
	if err := s.Put([]byte("b"), []byte("1")); err != nil { // segment 2
		t.Fatal(err)
	}
	if err := s.Delete([]byte("b")); err != nil { // segment 3
		t.Fatal(err)
	}
	// sealed = [1: put a (live), 2: put b (dead), 3: del b (tombstone)]
	if _, err := s.CompactStep(); err != nil { // seg 1: keep put a
		t.Fatal(err)
	}
	if _, err := s.CompactStep(); err != nil { // seg 2: fully dead -> deleted
		t.Fatal(err)
	}
	if _, err := s.CompactStep(); err != nil { // seg 3: NOT oldest -> tombstone kept
		t.Fatal(err)
	}
	st := s.Stats()
	// Segment 2 deleted; 1, 3 and the active remain.
	if st.Segments != 3 {
		t.Fatalf("Segments = %d, want 3 (dead segment deleted)", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get([]byte("a")); !ok || !bytes.Equal(v, []byte("1")) {
		t.Fatalf("a = %q,%v after compaction+reopen", v, ok)
	}
	if s2.Has([]byte("b")) {
		t.Fatal("deleted key resurrected: tombstone lost in compaction")
	}
}

func TestLegacyWALMigration(t *testing.T) {
	// Build a pre-segmentation wal.log by hand and check Open migrates
	// it to segment 1 with all records replayed.
	dir := t.TempDir()
	var blob []byte
	for i := 0; i < 5; i++ {
		blob = append(blob, encodeRecord(kindPut,
			encodePutBody([]byte(fmt.Sprintf("legacy-%d", i)), []byte("v")))...)
	}
	if err := os.WriteFile(filepath.Join(dir, legacyLogName), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, legacyLogName)); !os.IsNotExist(err) {
		t.Error("legacy wal.log still present after migration")
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); err != nil {
		t.Errorf("segment 1 missing after migration: %v", err)
	}
	if err := s.Put([]byte("post"), []byte("migrate")); err != nil {
		t.Fatal(err)
	}
}

// TestBackgroundCompaction: every key is overwritten 30 times, so far
// more than half the log is garbage — past the compactor's trigger.
func TestBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{
		SegmentBytes: 256,
		CompactEvery: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 30; round++ {
		for i := 0; i < 10; i++ {
			if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Compactions == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Stats().Compactions == 0 {
		t.Fatal("background compactor never ran")
	}
	if err := s.Close(); err != nil { // also stops the compactor
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("Len after background compaction + reopen = %d, want 10", s2.Len())
	}
}

func TestShardedConcurrentReadWrite(t *testing.T) {
	s, err := OpenWith(t.TempDir(), Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := []byte(fmt.Sprintf("g%d-k%d", g, i))
				if err := s.Put(key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.Get(key); !ok {
					t.Error("read-own-write failed")
					return
				}
				if _, err := s.PutIfAbsent([]byte(fmt.Sprintf("cas-%d", i)), []byte{byte(g)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := s.Len(), 8*50+50; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

// TestQuickCompactionEquivalence: a random op sequence with random
// CompactStep calls interleaved, over tiny segments, replays through a
// reopen to exactly the model map — compaction is invisible to clients.
func TestQuickCompactionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s, err := OpenWith(dir, Options{SegmentBytes: int64(32 + r.Intn(256))})
		if err != nil {
			t.Fatal(err)
		}
		model := make(map[string]string)
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("k%d", r.Intn(25))
			switch r.Intn(5) {
			case 0:
				if err := s.Delete([]byte(key)); err != nil {
					t.Fatal(err)
				}
				delete(model, key)
			case 1:
				if _, err := s.CompactStep(); err != nil {
					t.Fatal(err)
				}
			default:
				val := fmt.Sprintf("v%d", r.Intn(1000))
				if err := s.Put([]byte(key), []byte(val)); err != nil {
					t.Fatal(err)
				}
				model[key] = val
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		if s2.Len() != len(model) {
			t.Fatalf("seed %d: Len = %d, want %d", seed, s2.Len(), len(model))
		}
		for k, v := range model {
			got, ok := s2.Get([]byte(k))
			if !ok || string(got) != v {
				t.Fatalf("seed %d: %q = %q,%v want %q", seed, k, got, ok, v)
			}
		}
		s2.Close()
	}
}

func TestStatsShape(t *testing.T) {
	mem, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	mem.Put([]byte("k"), []byte("v"))
	if st := mem.Stats(); st.Segments != 0 || st.LiveKeys != 1 || st.LiveBytes != recordOverhead+2 {
		t.Fatalf("in-memory Stats = %+v", st)
	}
	mem.Close()

	s, dir := openTemp(t)
	defer s.Close()
	s.Put([]byte("key"), []byte("value"))
	s.Put([]byte("key"), []byte("value2")) // first record now dead
	st := s.Stats()
	if st.Segments != 1 || st.LiveKeys != 1 {
		t.Fatalf("Stats = %+v, want 1 segment / 1 live key", st)
	}
	if st.LiveBytes != int64(recordOverhead+len("key")+len("value2")) {
		t.Fatalf("LiveBytes = %d", st.LiveBytes)
	}
	if st.DeadBytes <= 0 || st.LoggedBytes <= st.LiveBytes {
		t.Fatalf("dead-byte accounting off: %+v", st)
	}
	if st.IndexShards != IndexShards {
		t.Fatalf("IndexShards = %d, want %d", st.IndexShards, IndexShards)
	}

	// After a full compaction of a tombstone-free store the ratio must
	// converge to (near) zero, or the background compactor would rewrite
	// all-live segments every tick forever.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if gr := s.GarbageRatio(); gr > 0.01 {
		t.Fatalf("GarbageRatio after full compaction = %v, want ~0", gr)
	}
	if st := s.Stats(); st.DeadBytes != 0 {
		t.Fatalf("DeadBytes after full compaction = %d, want 0 (stats = %+v)", st.DeadBytes, st)
	}
	if got, want := logBytes(t, dir), s.Stats().LiveBytes; got != want {
		t.Fatalf("on-disk bytes %d != LiveBytes estimate %d after compaction", got, want)
	}
}

func TestPrefixScanRelaxed(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	want := map[string]string{}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("rev:%02d", i)
		s.Put([]byte(k), []byte("x"))
		want[k] = "x"
	}
	s.Put([]byte("other:1"), []byte("y"))
	got := map[string]string{}
	s.PrefixScanRelaxed([]byte("rev:"), func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("relaxed scan saw %d keys, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != "x" {
			t.Fatalf("missing %q", k)
		}
	}
	// Early stop.
	n := 0
	s.PrefixScanRelaxed([]byte("rev:"), func(k, v []byte) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

// Every mutation must reject records that replay would refuse — an
// acknowledged-but-unreplayable record bricks the store once its
// segment seals.
func TestOversizedKeysRejectedEverywhere(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	big := make([]byte, maxKeyLen+1)
	if err := s.Put(big, []byte("v")); err == nil {
		t.Error("Put accepted oversized key")
	}
	if _, err := s.PutIfAbsent(big, []byte("v")); err == nil {
		t.Error("PutIfAbsent accepted oversized key")
	}
	if err := s.Delete(big); err == nil {
		t.Error("Delete accepted oversized key")
	}
	if err := s.Apply(new(Batch).Put(big, []byte("v"))); err == nil {
		t.Error("Apply accepted oversized key")
	}
	if err := s.Put([]byte("ok"), []byte("v")); err != nil {
		t.Fatalf("store unusable after rejections: %v", err)
	}
}
