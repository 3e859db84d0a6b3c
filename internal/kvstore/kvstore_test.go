package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func openTemp(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// segmentFiles lists the segment files in dir, sorted by id.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	ids, err := listSegmentIDs(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = filepath.Join(dir, segmentName(id))
	}
	return out
}

// logBytes sums the on-disk size of every segment file.
func logBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	for _, p := range segmentFiles(t, dir) {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	return total
}

func TestPutGetDelete(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()

	if err := s.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get([]byte("k1"))
	if !ok || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if err := s.Put([]byte("k1"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Get([]byte("k1"))
	if !bytes.Equal(v, []byte("v2")) {
		t.Error("overwrite failed")
	}
	if err := s.Delete([]byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get([]byte("k1")); ok {
		t.Error("deleted key still present")
	}
	if !s.Has([]byte("k1")) == false && s.Has([]byte("k1")) {
		t.Error("Has inconsistent")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	if err := s.Put(nil, []byte("v")); err != ErrEmptyKey {
		t.Errorf("Put(nil) err = %v", err)
	}
	if err := s.Delete(nil); err != ErrEmptyKey {
		t.Errorf("Delete(nil) err = %v", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	s.Put([]byte("k"), []byte("value"))
	v, _ := s.Get([]byte("k"))
	v[0] = 'X'
	v2, _ := s.Get([]byte("k"))
	if !bytes.Equal(v2, []byte("value")) {
		t.Error("caller mutation leaked into store")
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	s, dir := openTemp(t)
	for i := 0; i < 100; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete([]byte("k050"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 99 {
		t.Fatalf("Len after reopen = %d, want 99", s2.Len())
	}
	v, ok := s2.Get([]byte("k042"))
	if !ok || !bytes.Equal(v, []byte("v42")) {
		t.Errorf("k042 = %q,%v", v, ok)
	}
	if _, ok := s2.Get([]byte("k050")); ok {
		t.Error("deleted key resurrected after reopen")
	}
}

func TestTornTailRecovery(t *testing.T) {
	s, dir := openTemp(t)
	s.Put([]byte("good1"), []byte("a"))
	s.Put([]byte("good2"), []byte("b"))
	s.Close()

	// Simulate a crash mid-append: write half a record at the tail of
	// the active (last) segment.
	path := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xDE, 0xAD, 0xBE}) // 3 bytes: not even a full header
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	if s2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s2.Len())
	}
	// Store must be writable after recovery and survive another cycle.
	if err := s2.Put([]byte("good3"), []byte("c")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 3 {
		t.Errorf("Len after second reopen = %d, want 3", s3.Len())
	}
}

func TestCorruptRecordStopsReplay(t *testing.T) {
	s, dir := openTemp(t)
	s.Put([]byte("k1"), []byte("v1"))
	s.Put([]byte("k2"), []byte("v2"))
	s.Close()

	// Flip a byte inside the second record's body.
	path := filepath.Join(dir, segmentName(1))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// First record intact; the corrupted one dropped.
	if _, ok := s2.Get([]byte("k1")); !ok {
		t.Error("intact record lost")
	}
	if _, ok := s2.Get([]byte("k2")); ok {
		t.Error("corrupt record applied")
	}
}

func TestBatchAtomicityAndReplay(t *testing.T) {
	s, dir := openTemp(t)
	s.Put([]byte("old"), []byte("x"))
	b := new(Batch)
	b.Put([]byte("lic:1"), []byte("license-bytes"))
	b.Put([]byte("rev:serial9"), []byte{1})
	b.Delete([]byte("old"))
	if b.Len() != 3 {
		t.Fatalf("Batch.Len = %d", b.Len())
	}
	if err := s.Apply(b); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get([]byte("lic:1")); !ok {
		t.Error("batch put lost")
	}
	if _, ok := s2.Get([]byte("rev:serial9")); !ok {
		t.Error("batch put 2 lost")
	}
	if _, ok := s2.Get([]byte("old")); ok {
		t.Error("batch delete lost")
	}
}

func TestApplyEmptyBatch(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	if err := s.Apply(nil); err != nil {
		t.Error(err)
	}
	if err := s.Apply(new(Batch)); err != nil {
		t.Error(err)
	}
}

func TestBatchRejectsEmptyKey(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	b := new(Batch)
	b.Put(nil, []byte("v"))
	if err := s.Apply(b); err != ErrEmptyKey {
		t.Errorf("err = %v, want ErrEmptyKey", err)
	}
}

func TestForEachSortedAndEarlyStop(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	for _, k := range []string{"c", "a", "b"} {
		s.Put([]byte(k), []byte(k))
	}
	var got []string
	s.ForEach(func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if fmt.Sprint(got) != "[a b c]" {
		t.Errorf("order = %v", got)
	}
	got = nil
	s.ForEach(func(k, v []byte) bool {
		got = append(got, string(k))
		return len(got) < 2
	})
	if len(got) != 2 {
		t.Errorf("early stop visited %d", len(got))
	}
}

func TestPrefixScan(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	s.Put([]byte("lic:1"), []byte("a"))
	s.Put([]byte("lic:2"), []byte("b"))
	s.Put([]byte("rev:1"), []byte("c"))
	var got []string
	s.PrefixScan([]byte("lic:"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if fmt.Sprint(got) != "[lic:1 lic:2]" {
		t.Errorf("prefix scan = %v", got)
	}
}

func TestCompactPreservesDataAndShrinksLog(t *testing.T) {
	s, dir := openTemp(t)
	// Create churn: many overwrites of the same keys.
	for round := 0; round < 20; round++ {
		for i := 0; i < 50; i++ {
			s.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("val-%d-%d", round, i)))
		}
	}
	before := logBytes(t, dir)
	if s.GarbageRatio() < 0.5 {
		t.Logf("garbage ratio unexpectedly low: %v", s.GarbageRatio())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := logBytes(t, dir); after >= before {
		t.Errorf("compaction did not shrink log: %d -> %d", before, after)
	}
	// All live data still present, and the store still writable.
	for i := 0; i < 50; i++ {
		v, ok := s.Get([]byte(fmt.Sprintf("k%02d", i)))
		if !ok || !bytes.Equal(v, []byte(fmt.Sprintf("val-19-%d", i))) {
			t.Fatalf("k%02d lost after compact", i)
		}
	}
	if err := s.Put([]byte("post"), []byte("compact")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 51 {
		t.Errorf("Len after compact+reopen = %d, want 51", s2.Len())
	}
}

func TestInMemoryStore(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get([]byte("k")); !ok {
		t.Error("in-memory put lost")
	}
	if err := s.Sync(); err != nil {
		t.Error(err)
	}
	if err := s.Compact(); err != nil {
		t.Error(err)
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	s, _ := openTemp(t)
	s.Close()
	if err := s.Put([]byte("k"), []byte("v")); err != ErrClosed {
		t.Errorf("Put after close: %v", err)
	}
	if err := s.Delete([]byte("k")); err != ErrClosed {
		t.Errorf("Delete after close: %v", err)
	}
	if err := s.Apply(new(Batch).Put([]byte("k"), nil)); err != ErrClosed {
		t.Errorf("Apply after close: %v", err)
	}
	if err := s.Sync(); err != ErrClosed {
		t.Errorf("Sync after close: %v", err)
	}
	if err := s.Compact(); err != ErrClosed {
		t.Errorf("Compact after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := []byte(fmt.Sprintf("g%d-k%d", g, i))
				if err := s.Put(key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.Get(key); !ok {
					t.Error("read-own-write failed")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("Len = %d, want 800", s.Len())
	}
}

// Property: a random sequence of puts/deletes replayed through a reopen
// yields exactly the same map (the store is a faithful durable map).
func TestQuickReplayEquivalence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(11))}
	f := func(seed int64, nOps uint8) bool {
		dir, err := os.MkdirTemp("", "kvq")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		s, err := Open(dir)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		model := make(map[string]string)
		for i := 0; i < int(nOps)+5; i++ {
			key := fmt.Sprintf("k%d", r.Intn(20))
			if r.Intn(4) == 0 {
				if s.Delete([]byte(key)) != nil {
					return false
				}
				delete(model, key)
			} else {
				val := fmt.Sprintf("v%d", r.Intn(1000))
				if s.Put([]byte(key), []byte(val)) != nil {
					return false
				}
				model[key] = val
			}
		}
		if s.Close() != nil {
			return false
		}
		s2, err := Open(dir)
		if err != nil {
			return false
		}
		defer s2.Close()
		if s2.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := s2.Get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPutIfAbsent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	inserted, err := s.PutIfAbsent([]byte("k"), []byte("first"))
	if err != nil || !inserted {
		t.Fatalf("first insert: inserted=%v err=%v", inserted, err)
	}
	inserted, err = s.PutIfAbsent([]byte("k"), []byte("second"))
	if err != nil || inserted {
		t.Fatalf("second insert: inserted=%v err=%v", inserted, err)
	}
	if v, _ := s.Get([]byte("k")); string(v) != "first" {
		t.Errorf("value = %q, want %q", v, "first")
	}
	if _, err := s.PutIfAbsent(nil, []byte("v")); err != ErrEmptyKey {
		t.Errorf("empty key: %v", err)
	}

	// Only the winning write is logged: value survives reopen unchanged.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, _ := s2.Get([]byte("k")); string(v) != "first" {
		t.Errorf("after reopen: value = %q, want %q", v, "first")
	}
}

func TestPutIfAbsentConcurrentSingleWinner(t *testing.T) {
	s, _ := Open("")
	const racers = 32
	results := make([]bool, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok, err := s.PutIfAbsent([]byte("serial"), []byte(fmt.Sprintf("racer-%d", i)))
			if err != nil {
				t.Errorf("racer %d: %v", i, err)
			}
			results[i] = ok
		}(i)
	}
	wg.Wait()
	wins := 0
	for _, ok := range results {
		if ok {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("%d racers won the insert, want exactly 1", wins)
	}
}

func TestSyncPoliciesDurableAcrossReopen(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"on_close", Options{Sync: SyncOnClose}},
		{"group_commit", Options{Sync: SyncGroupCommit}},
		{"group_commit_window", Options{Sync: SyncGroupCommit, CommitInterval: time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenWith(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if ok, err := s.PutIfAbsent([]byte("cas"), []byte("w")); !ok || err != nil {
				t.Fatalf("PutIfAbsent: %v %v", ok, err)
			}
			if err := s.Delete([]byte("k0")); err != nil {
				t.Fatal(err)
			}
			if err := s.Apply(new(Batch).Put([]byte("b1"), []byte("x")).Delete([]byte("k1"))); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := OpenWith(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.Len() != 20 { // 20 puts + cas + b1 - k0 - k1
				t.Errorf("Len = %d, want 20", s2.Len())
			}
		})
	}
}

// TestGroupCommitConcurrentWriters: every acknowledged write must be in
// the log (verified by opening a byte-for-byte copy of the live WAL
// WITHOUT closing the original, so Close's fsync cannot paper over a
// missing flush), and the CAS primitive keeps its single-winner
// guarantee while commits batch.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{Sync: SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const writers, perWriter = 8, 40
	wins := make([]int, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Put([]byte(fmt.Sprintf("g%d-k%d", g, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
				ok, err := s.PutIfAbsent([]byte(fmt.Sprintf("cas-%d", i)), []byte{byte(g)})
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					wins[g]++
				}
			}
		}(g)
	}
	wg.Wait()

	total := 0
	for _, w := range wins {
		total += w
	}
	if total != perWriter {
		t.Errorf("CAS winners = %d, want %d", total, perWriter)
	}

	copyDir := t.TempDir()
	for _, p := range segmentFiles(t, dir) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(copyDir, filepath.Base(p)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(copyDir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if want := writers*perWriter + perWriter; s2.Len() != want {
		t.Errorf("replayed Len = %d, want %d", s2.Len(), want)
	}
}

// TestGroupCommitCompactUnderLoad races Compact's log swap against
// concurrent durable writers: no write may fail, hang, or be lost.
func TestGroupCommitCompactUnderLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{Sync: SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 30
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Put([]byte(fmt.Sprintf("g%d-k%d", g, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != writers*perWriter {
		t.Errorf("Len after compacted reopen = %d, want %d", s2.Len(), writers*perWriter)
	}
}
