package kvstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openCounted opens a group-commit store in a fresh directory whose
// durability waits are counted into waits.
func openCounted(t *testing.T, waits *atomic.Int64) *Store {
	t.Helper()
	s, err := OpenWith(t.TempDir(), Options{Sync: SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.SetObserver(&Observer{CommitWaitSeconds: func(time.Duration) { waits.Add(1) }})
	return s
}

// durableGap reports how many logged bytes of a single-segment store are
// not yet behind its durable horizon.
func durableGap(s *Store) int64 {
	_, off := s.DurableOffset()
	return s.Stats().LoggedBytes - off
}

func TestCommitSetOneWaitPerStore(t *testing.T) {
	var waits atomic.Int64
	a, b := openCounted(t, &waits), openCounted(t, &waits)

	ctx, commit := BeginCommit(context.Background())
	for i := 0; i < 5; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if err := a.PutCtx(ctx, key, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if ok, err := b.PutIfAbsentCtx(ctx, key, []byte{1}); err != nil || !ok {
			t.Fatalf("PutIfAbsentCtx = %v, %v", ok, err)
		}
	}
	if err := a.DeleteCtx(ctx, []byte("k0")); err != nil {
		t.Fatal(err)
	}
	if err := a.ApplyCtx(ctx, new(Batch).Put([]byte("x"), []byte{1}).Put([]byte("y"), []byte{2})); err != nil {
		t.Fatal(err)
	}
	if !a.Has([]byte("x")) || a.Has([]byte("k0")) || !b.Has([]byte("k4")) {
		t.Fatal("deferred writes are not applied to the index")
	}
	if got := waits.Load(); got != 0 {
		t.Fatalf("%d durability waits before the boundary, want 0", got)
	}
	if durableGap(a) == 0 || durableGap(b) == 0 {
		t.Fatal("nothing was deferred: the stores are durable before the boundary")
	}
	if err := commit.End(ctx); err != nil {
		t.Fatal(err)
	}
	if got := waits.Load(); got != 2 {
		t.Errorf("%d durability waits for 12 writes on two stores, want 2", got)
	}
	if durableGap(a) != 0 || durableGap(b) != 0 {
		t.Errorf("not durable after End: gaps %d, %d", durableGap(a), durableGap(b))
	}
	// A settled set has nothing left to wait for.
	if err := commit.End(ctx); err != nil || waits.Load() != 2 {
		t.Errorf("second End: err %v, %d waits", err, waits.Load())
	}
}

func TestCommitSetPlainContextWaitsPerWrite(t *testing.T) {
	var waits atomic.Int64
	s := openCounted(t, &waits)
	for i := 0; i < 3; i++ {
		if err := s.PutCtx(context.Background(), []byte{byte('a' + i)}, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if durableGap(s) != 0 {
			t.Fatal("PutCtx under a plain context returned before its record was durable")
		}
	}
	if got := waits.Load(); got != 3 {
		t.Errorf("%d waits for 3 plain writes, want 3", got)
	}
}

// TestCommitSetJoin: a nested BeginCommit joins the caller's set, its End
// leaves the wait to the owner, and Barrier waits whoever calls it.
func TestCommitSetJoin(t *testing.T) {
	var waits atomic.Int64
	s := openCounted(t, &waits)
	outerCtx, outer := BeginCommit(context.Background())
	ctx, inner := BeginCommit(outerCtx)
	if ctx != outerCtx {
		t.Error("joining replaced the context")
	}
	if err := s.PutCtx(ctx, []byte("a"), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := inner.End(ctx); err != nil || waits.Load() != 0 || durableGap(s) == 0 {
		t.Fatalf("joined End: err %v, %d waits, gap %d; want it to leave the wait to the owner", err, waits.Load(), durableGap(s))
	}
	if err := inner.Barrier(ctx); err != nil || waits.Load() != 1 || durableGap(s) != 0 {
		t.Fatalf("Barrier: err %v, %d waits, gap %d", err, waits.Load(), durableGap(s))
	}
	if err := s.PutCtx(ctx, []byte("b"), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := outer.End(outerCtx); err != nil || waits.Load() != 2 || durableGap(s) != 0 {
		t.Fatalf("owner End: err %v, %d waits, gap %d", err, waits.Load(), durableGap(s))
	}
}

// TestCommitSetLoserCoversWinner: a CAS loser's boundary wait makes the
// record it lost to durable, even when the winner has not waited at all.
// ReadBarrierCtx gives a plain reader the same cover.
func TestCommitSetLoserCoversWinner(t *testing.T) {
	var waits atomic.Int64
	s := openCounted(t, &waits)
	winCtx, _ := BeginCommit(context.Background())
	if ok, err := s.PutIfAbsentCtx(winCtx, []byte("spent:1"), []byte{1}); err != nil || !ok {
		t.Fatalf("winner: %v, %v", ok, err)
	}
	loseCtx, loser := BeginCommit(context.Background())
	if ok, err := s.PutIfAbsentCtx(loseCtx, []byte("spent:1"), []byte{2}); err != nil || ok {
		t.Fatalf("loser: %v, %v", ok, err)
	}
	if durableGap(s) == 0 {
		t.Fatal("winner's record durable before anyone waited")
	}
	if err := loser.End(loseCtx); err != nil {
		t.Fatal(err)
	}
	if durableGap(s) != 0 {
		t.Error("loser's End returned before the record it lost to was durable")
	}

	if err := s.PutCtx(winCtx, []byte("rev:1"), []byte{1}); err != nil {
		t.Fatal(err)
	}
	readCtx, reader := BeginCommit(context.Background())
	if !s.Has([]byte("rev:1")) {
		t.Fatal("appended record not visible")
	}
	if err := s.ReadBarrierCtx(readCtx); err != nil {
		t.Fatal(err)
	}
	if err := reader.End(readCtx); err != nil || durableGap(s) != 0 {
		t.Errorf("ReadBarrierCtx + End: err %v, gap %d", err, durableGap(s))
	}
	// Without a commit set the barrier waits inline.
	if err := s.PutCtx(winCtx, []byte("rev:2"), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadBarrierCtx(context.Background()); err != nil || durableGap(s) != 0 {
		t.Errorf("plain ReadBarrierCtx: err %v, gap %d", err, durableGap(s))
	}
}

// TestCommitSetFailedWaitIsSticky: the writes of a request whose store
// lost an fsync append fine and fail at the boundary, and once a set has
// failed a wait it never reports success again.
func TestCommitSetFailedWaitIsSticky(t *testing.T) {
	var waits atomic.Int64
	bad, good := openCounted(t, &waits), openCounted(t, &waits)
	boom := errors.New("injected fsync failure")
	bad.PoisonWAL(boom)
	if !errors.Is(bad.Health(), boom) {
		t.Fatalf("Health() = %v", bad.Health())
	}
	if err := bad.Put([]byte("plain"), []byte{1}); !errors.Is(err, boom) {
		t.Errorf("plain Put on a poisoned group-commit store: %v, want the fsync error", err)
	}

	ctx, commit := BeginCommit(context.Background())
	if err := bad.PutCtx(ctx, []byte("a"), []byte{1}); err != nil {
		t.Fatalf("deferred append: %v", err)
	}
	if err := commit.Barrier(ctx); !errors.Is(err, boom) {
		t.Fatalf("Barrier = %v, want the fsync error", err)
	}
	if err := good.PutCtx(ctx, []byte("b"), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := commit.End(ctx); !errors.Is(err, boom) {
		t.Errorf("End after a failed Barrier = %v, want the first failure", err)
	}
}

// TestCommitSetConcurrentNotes: batch workers note into one set from
// several goroutines (run under -race by `make race`).
func TestCommitSetConcurrentNotes(t *testing.T) {
	var waits atomic.Int64
	a, b := openCounted(t, &waits), openCounted(t, &waits)
	ctx, commit := BeginCommit(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := []byte(fmt.Sprintf("g%d-%d", g, i))
				if err := a.PutCtx(ctx, key, key); err != nil {
					t.Error(err)
				}
				if _, err := b.PutIfAbsentCtx(ctx, key, key); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := commit.End(ctx); err != nil {
		t.Fatal(err)
	}
	if waits.Load() != 2 || durableGap(a) != 0 || durableGap(b) != 0 {
		t.Errorf("%d waits, gaps %d and %d; want 2 waits and both stores durable", waits.Load(), durableGap(a), durableGap(b))
	}
}

// powerLossImage opens a copy of a single-segment store as a power loss
// would leave it: the log cut at upTo bytes (the durable horizon for the
// worst case; -1 keeps every flushed byte, the best).
func powerLossImage(t *testing.T, s *Store, upTo int64) *Store {
	t.Helper()
	data, err := os.ReadFile(s.segmentPath(1))
	if err != nil {
		t.Fatal(err)
	}
	if upTo >= 0 && upTo < int64(len(data)) {
		data = data[:upTo]
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	img, err := Open(dir)
	if err != nil {
		t.Fatalf("replay power-loss image: %v", err)
	}
	t.Cleanup(func() { img.Close() })
	return img
}

// powerLossCheck images the provider store at its most generous (every
// flushed byte survived) and the bank store at its least (nothing past
// the durable horizon did) and counts the issuance records in the first
// that are not paid for in the second; then images both at their durable
// horizons and counts the acked purchases that are not whole there.
func powerLossCheck(t *testing.T, bank, prov *Store, acked []string) (unpaid, lost int) {
	t.Helper()
	// Read order matters: the provider's flushed bytes first, the bank's
	// horizon after, so the bank image is never older than the provider
	// image it is checked against.
	provFull := powerLossImage(t, prov, -1)
	_, provOff := prov.DurableOffset()
	_, bankOff := bank.DurableOffset()
	bankDurable := powerLossImage(t, bank, bankOff)
	provDurable := powerLossImage(t, prov, provOff)
	paid := func(id string) bool {
		return bankDurable.Has([]byte("spent:"+id+"a")) && bankDurable.Has([]byte("spent:"+id+"b"))
	}
	provFull.PrefixScan([]byte("issued:"), func(k, v []byte) bool {
		if !paid(string(v)) {
			unpaid++
		}
		return true
	})
	for _, id := range acked {
		if !paid(id) || !provDurable.Has([]byte("issued:"+id)) {
			lost++
		}
	}
	return unpaid, lost
}

// TestCommitSetPowerLoss checks the two cross-store guarantees of a
// purchase-shaped commit set — two spent marks to the bank store, the
// payment-before-goods Barrier, the issuance record to the provider
// store, End — against a power-loss model, which SIGKILL cannot give (a
// killed process loses nothing it flushed to the OS): no issuance record
// can survive without its spent marks, and no acknowledged purchase can
// lose either. The model is first shown to catch the same writes made
// without the barrier.
func TestCommitSetPowerLoss(t *testing.T) {
	var waits atomic.Int64
	bank, prov := openCounted(t, &waits), openCounted(t, &waits)
	pay := func(ctx context.Context, id string) {
		for _, coin := range []string{"a", "b"} {
			if _, err := bank.PutIfAbsentCtx(ctx, []byte("spent:"+id+coin), []byte{1}); err != nil {
				t.Error(err)
			}
		}
	}
	issue := func(ctx context.Context, id string) {
		if err := prov.PutCtx(ctx, []byte("issued:"+id), []byte(id)); err != nil {
			t.Error(err)
		}
	}

	ctx, commit := BeginCommit(context.Background())
	pay(ctx, "unordered")
	issue(ctx, "unordered")
	if unpaid, _ := powerLossCheck(t, bank, prov, nil); unpaid != 1 {
		t.Fatalf("model found %d unpaid issuance records for goods appended before payment was durable, want 1", unpaid)
	}
	if err := commit.End(ctx); err != nil {
		t.Fatal(err)
	}

	var (
		mu    sync.Mutex
		acked []string
		stop  atomic.Bool
		wg    sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				ctx, commit := BeginCommit(context.Background())
				pay(ctx, id)
				if err := commit.Barrier(ctx); err != nil {
					t.Error(err)
				}
				issue(ctx, id)
				if err := commit.End(ctx); err != nil {
					t.Error(err)
				}
				mu.Lock()
				acked = append(acked, id)
				mu.Unlock()
			}
		}(g)
	}
	for round := 0; round < 25; round++ {
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		ackedNow := append([]string(nil), acked...)
		mu.Unlock()
		if unpaid, lost := powerLossCheck(t, bank, prov, ackedNow); unpaid != 0 || lost != 0 {
			t.Errorf("round %d: %d issuance records could outlive their spent marks, %d of %d acknowledged purchases incomplete",
				round, unpaid, lost, len(ackedNow))
		}
	}
	stop.Store(true)
	wg.Wait()
}
