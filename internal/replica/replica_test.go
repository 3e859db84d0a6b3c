package replica_test

// In-process replication tests: Source + Follower wired through
// LocalFetcher. The HTTP transport is exercised by the e2e suite in
// e2e_test.go; SIGKILL crash-recovery by crash_test.go.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"p2drm/internal/kvstore"
	"p2drm/internal/replica"
)

// newPrimary opens a small-segment, group-commit primary store.
func newPrimary(t *testing.T) *kvstore.Store {
	t.Helper()
	s, err := kvstore.OpenWith(t.TempDir(), kvstore.Options{
		Sync:         kvstore.SyncGroupCommit,
		SegmentBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func fill(t *testing.T, s *kvstore.Store, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("%s-%04d", prefix, i)), []byte(fmt.Sprintf("v-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
}

// waitConverged polls until the follower reports caught-up AND its live
// set matches the primary's.
func waitConverged(t *testing.T, f *replica.Follower, primary *kvstore.Store, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := f.Status()
		if st.CaughtUp && st.LagBytes == 0 && sameLiveSet(f, primary) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := f.Status()
	t.Fatalf("follower never converged: state=%s caught_up=%v lag=%d err=%q follower_keys=%d primary_keys=%d",
		st.State, st.CaughtUp, st.LagBytes, st.LastError, f.Stats().LiveKeys, primary.Len())
}

func sameLiveSet(f *replica.Follower, primary *kvstore.Store) bool {
	if f.Stats().LiveKeys != primary.Len() {
		return false
	}
	same := true
	primary.ForEach(func(k, v []byte) bool {
		got, ok := f.Get(k)
		if !ok || string(got) != string(v) {
			same = false
			return false
		}
		return true
	})
	return same
}

func startFollower(t *testing.T, src *replica.Source, dir string) *replica.Follower {
	t.Helper()
	f, err := replica.Open(replica.Options{
		Dir:          dir,
		Fetch:        replica.LocalFetcher{Src: src},
		PollInterval: 10 * time.Millisecond,
		BackoffMin:   10 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	f.Start()
	return f
}

func TestFollowerBootstrapAndTail(t *testing.T) {
	primary := newPrimary(t)
	fill(t, primary, "boot", 50) // several sealed segments
	if err := primary.Delete([]byte("boot-0007")); err != nil {
		t.Fatal(err)
	}
	src := replica.NewSource(primary)
	f := startFollower(t, src, "")
	waitConverged(t, f, primary, 5*time.Second)

	// Incremental tailing: new writes (including a batch and a delete)
	// arrive without a resync.
	fill(t, primary, "tail", 30)
	b := new(kvstore.Batch)
	b.Put([]byte("batch-a"), []byte("1")).Put([]byte("batch-b"), []byte("2")).Delete([]byte("tail-0001"))
	if err := primary.Apply(b); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, f, primary, 5*time.Second)
	if got := f.Status().Resyncs; got != 1 {
		t.Errorf("expected exactly the bootstrap snapshot, got %d resyncs", got)
	}
	if _, ok := f.Get([]byte("tail-0001")); ok {
		t.Error("deleted key still visible on follower")
	}
	if src.Pins() != 0 {
		t.Errorf("pins leaked after bootstrap: %d", src.Pins())
	}
}

// TestFollowerRejectsWritesUntilPromoted: a follower has no write method;
// until it is promoted it tails the primary, and the store Promote returns
// is the one write handle, its writes read back through the follower.
func TestFollowerRejectsWritesUntilPromoted(t *testing.T) {
	primary := newPrimary(t)
	fill(t, primary, "k", 10)
	src := replica.NewSource(primary)
	f := startFollower(t, src, "")
	waitConverged(t, f, primary, 5*time.Second)

	if st := f.Status(); st.Promoted || st.State != "tailing" {
		t.Fatalf("unpromoted follower: state %s, promoted %v; want tailing, not promoted", st.State, st.Promoted)
	}
	fill(t, primary, "more", 5)
	waitConverged(t, f, primary, 5*time.Second)

	st, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte("rogue"), []byte("w")); err != nil {
		t.Fatalf("write through the promoted store: %v", err)
	}
	if v, ok := f.Get([]byte("rogue")); !ok || string(v) != "w" {
		t.Fatal("a write through the promoted store does not read back through the follower")
	}
	if got := f.Status().State; got != "promoted" {
		t.Errorf("state after promote: %s", got)
	}
}

// TestPromotionIsDurable: once a durable follower is promoted, reopening
// its state dir in replica mode must be refused — a resync there would
// silently destroy every write accepted after the promotion.
func TestPromotionIsDurable(t *testing.T) {
	primary := newPrimary(t)
	fill(t, primary, "k", 10)
	src := replica.NewSource(primary)
	dir := t.TempDir()
	f, err := replica.Open(replica.Options{
		Dir: dir, Fetch: replica.LocalFetcher{Src: src},
		PollInterval: 10 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	waitConverged(t, f, primary, 5*time.Second)
	// Concurrent promotions: one writes the marker, the others are no-ops.
	stores := make(chan *kvstore.Store, 4)
	for range cap(stores) {
		go func() {
			st, err := f.Promote()
			if err != nil {
				t.Error(err)
			}
			stores <- st
		}()
	}
	st := <-stores
	for range cap(stores) - 1 {
		if <-stores != st {
			t.Fatal("concurrent promotions returned different stores")
		}
	}
	if err := st.Put([]byte("post-promotion"), []byte("precious")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := replica.Open(replica.Options{
		Dir: dir, Fetch: replica.LocalFetcher{Src: src},
	}); err != replica.ErrPromoted {
		t.Fatalf("replica.Open on promoted dir: got %v, want ErrPromoted", err)
	}
}

// TestPromotionMarkerFailureChangesNothing: when the PROMOTED marker
// cannot be written (here a directory squats on its path), Promote
// fails and the follower stays exactly what it was: read-only and
// tailing.
func TestPromotionMarkerFailureChangesNothing(t *testing.T) {
	primary := newPrimary(t)
	fill(t, primary, "k", 10)
	dir := t.TempDir()
	f := startFollower(t, replica.NewSource(primary), dir)
	waitConverged(t, f, primary, 5*time.Second)
	if err := os.Mkdir(filepath.Join(dir, "PROMOTED"), 0o755); err != nil {
		t.Fatal(err)
	}
	if st, err := f.Promote(); err == nil {
		t.Fatalf("Promote with an unwritable marker = %v, nil; want an error", st)
	}
	if st := f.Status(); st.Promoted || st.State == "promoted" {
		t.Fatalf("after a failed promote: state %s, promoted %v; want not promoted", st.State, st.Promoted)
	}
	fill(t, primary, "after", 5)
	waitConverged(t, f, primary, 5*time.Second)
}

// TestFollowerSurvivesPrimaryCompaction: compaction rewrites/deletes
// sealed segments mid-stream; the follower must converge regardless,
// via the gen guard + snapshot fallback.
func TestFollowerSurvivesPrimaryCompaction(t *testing.T) {
	primary := newPrimary(t)
	// Heavy churn on few keys → compaction changes almost everything.
	for i := 0; i < 200; i++ {
		if err := primary.Put([]byte(fmt.Sprintf("hot-%d", i%5)), []byte(fmt.Sprintf("v%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	src := replica.NewSource(primary)
	f := startFollower(t, src, "")
	waitConverged(t, f, primary, 5*time.Second)

	// Churn more, then compact while the follower tails.
	for i := 0; i < 200; i++ {
		if err := primary.Put([]byte(fmt.Sprintf("hot-%d", i%5)), []byte(fmt.Sprintf("w%04d", i))); err != nil {
			t.Fatal(err)
		}
		if i == 100 {
			if err := primary.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
	fill(t, primary, "post-compact", 20)
	waitConverged(t, f, primary, 10*time.Second)
}

// swapFetcher lets a test replace the underlying fetcher mid-flight,
// emulating a primary restart behind a stable URL.
type swapFetcher struct {
	ch chan replica.Fetcher
	f  replica.Fetcher
}

func (s *swapFetcher) cur() replica.Fetcher {
	select {
	case f := <-s.ch:
		s.f = f
	default:
	}
	return s.f
}
func (s *swapFetcher) Manifest(pin bool) (*replica.Manifest, error) { return s.cur().Manifest(pin) }
func (s *swapFetcher) Segment(id uint64, from, max int64, gen uint64, pin string) (*replica.Chunk, error) {
	return s.cur().Segment(id, from, max, gen, pin)
}
func (s *swapFetcher) Release(pin string) error { return s.cur().Release(pin) }

func TestFollowerPrimaryRestartEpoch(t *testing.T) {
	dir := t.TempDir()
	primary, err := kvstore.OpenWith(dir, kvstore.Options{Sync: kvstore.SyncGroupCommit, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, primary, "one", 40)
	sf := &swapFetcher{ch: make(chan replica.Fetcher, 1), f: replica.LocalFetcher{Src: replica.NewSource(primary)}}

	f, err := replica.Open(replica.Options{
		Fetch:        sf,
		PollInterval: 10 * time.Millisecond,
		BackoffMin:   10 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Start()
	waitConverged(t, f, primary, 5*time.Second)
	r0 := f.Status().Resyncs

	// Restart: close, mutate offline, compact history, reopen with a
	// NEW epoch.
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	primary2, err := kvstore.OpenWith(dir, kvstore.Options{Sync: kvstore.SyncGroupCommit, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer primary2.Close()
	if err := primary2.Delete([]byte("one-0000")); err != nil {
		t.Fatal(err)
	}
	fill(t, primary2, "two", 20)
	if err := primary2.Compact(); err != nil {
		t.Fatal(err)
	}
	sf.ch <- replica.LocalFetcher{Src: replica.NewSource(primary2)}

	waitConverged(t, f, primary2, 10*time.Second)
	if got := f.Status().Resyncs; got <= r0 {
		t.Errorf("epoch change did not force a resync (%d -> %d)", r0, got)
	}
	if _, ok := f.Get([]byte("one-0000")); ok {
		t.Error("key deleted across primary restart still visible on follower (stale store not rebuilt)")
	}
}

// TestFollowerDurableRestart: a durable follower stopped and reopened
// resumes from its persisted cursor without a fresh snapshot.
func TestFollowerDurableRestart(t *testing.T) {
	primary := newPrimary(t)
	fill(t, primary, "a", 30)
	src := replica.NewSource(primary)
	dir := t.TempDir()

	f1, err := replica.Open(replica.Options{
		Dir: dir, Fetch: replica.LocalFetcher{Src: src},
		PollInterval: 10 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	f1.Start()
	waitConverged(t, f1, primary, 5*time.Second)
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}

	fill(t, primary, "b", 30) // progress while the follower is down

	f2, err := replica.Open(replica.Options{
		Dir: dir, Fetch: replica.LocalFetcher{Src: src},
		PollInterval: 10 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if got := f2.Status().Cursor; got.Epoch != src.Epoch() {
		t.Fatalf("cursor not recovered: %+v", got)
	}
	f2.Start()
	waitConverged(t, f2, primary, 5*time.Second)
	if got := f2.Status().Resyncs; got != 0 {
		t.Errorf("restart forced %d resyncs; cursor resume expected", got)
	}
}

// TestFollowerNoTombstoneResurrection: while a follower is down, the
// primary deletes a key AND compacts the tombstone away entirely (the
// oldest-segment drop rule). The restarted follower's cursor now names
// segment content that no longer exists; it must detect the generation
// change and re-snapshot — silently accepting the rewritten segments
// would resurrect the deleted key forever.
func TestFollowerNoTombstoneResurrection(t *testing.T) {
	primary := newPrimary(t)
	if err := primary.Put([]byte("victim"), []byte("alive")); err != nil {
		t.Fatal(err)
	}
	// Churn a hot key (overwrites, not distinct keys): every record
	// before the tombstone can die, so whole segments get REMOVED and
	// the tombstone's segment can reach oldest position, where the
	// tombstone itself is legitimately dropped.
	churn := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := primary.Put([]byte("hot"), []byte(fmt.Sprintf("v%06d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(40)
	src := replica.NewSource(primary)
	dir := t.TempDir()
	f1, err := replica.Open(replica.Options{
		Dir: dir, Fetch: replica.LocalFetcher{Src: src},
		PollInterval: 10 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	f1.Start()
	waitConverged(t, f1, primary, 5*time.Second)
	if !f1.Has([]byte("victim")) {
		t.Fatal("follower missing the victim key before shutdown")
	}
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}

	// Offline: delete the key, then churn + compact until the victim's
	// put-segment is removed, the tombstone's segment becomes oldest
	// and the tombstone has been dropped from the log entirely.
	if err := primary.Delete([]byte("victim")); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		churn(40)
		if err := primary.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	fill(t, primary, "after", 20)

	f2, err := replica.Open(replica.Options{
		Dir: dir, Fetch: replica.LocalFetcher{Src: src},
		PollInterval: 10 * time.Millisecond, BackoffMin: 10 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	f2.Start()
	waitConverged(t, f2, primary, 10*time.Second)
	if f2.Has([]byte("victim")) {
		t.Fatal("deleted key resurrected on follower after offline compaction")
	}
	if f2.Status().Resyncs == 0 {
		t.Error("follower claims to have tailed through a compacted-away history without resync")
	}
}

// TestPinLeaseExpiry: an abandoned pin session stops blocking
// compaction once its TTL passes.
func TestPinLeaseExpiry(t *testing.T) {
	primary := newPrimary(t)
	for i := 0; i < 200; i++ {
		if err := primary.Put([]byte("hot"), []byte(fmt.Sprintf("v%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	src := replica.NewSource(primary)
	src.SetPinTTL(20 * time.Millisecond)
	m, err := src.Manifest(true)
	if err != nil {
		t.Fatal(err)
	}
	if m.PinID == "" || src.Pins() != 1 {
		t.Fatalf("pin session not created: %+v", m.PinID)
	}
	// The reap must fire on its own timer — a snapshot client that
	// vanished generates no further traffic to trigger a lazy reap.
	deadline := time.Now().Add(2 * time.Second)
	for src.Pins() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if src.Pins() != 0 {
		t.Fatalf("expired pin not reaped by timer: %d", src.Pins())
	}
	if _, err := src.Segment(m.Segments[0].ID, 0, 1024, 0, m.PinID); err != replica.ErrUnknownPin {
		t.Fatalf("expired pin read: got %v, want ErrUnknownPin", err)
	}
	// With the lease gone, compaction reclaims the churned segments.
	if err := primary.Compact(); err != nil {
		t.Fatal(err)
	}
}
