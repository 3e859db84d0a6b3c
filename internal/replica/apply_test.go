package replica

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"p2drm/internal/kvstore"
)

// TestBootstrapWaitsOncePerChunk: a follower bootstrapping a primary
// written as 100 batches of 1 000 ops pays at most one durability wait
// per fetched chunk, not one per coalesced batch, and ends up holding
// every key.
func TestBootstrapWaitsOncePerChunk(t *testing.T) {
	primary, err := kvstore.OpenWith(t.TempDir(), kvstore.Options{
		Sync:         kvstore.SyncGroupCommit,
		SegmentBytes: 512 << 10, // sealed segments for the snapshot, an active one to tail
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	const batches, perBatch = 100, 1000
	for b := 0; b < batches; b++ {
		batch := new(kvstore.Batch)
		for i := 0; i < perBatch; i++ {
			batch.Put([]byte(fmt.Sprintf("rev:%012d", b*perBatch+i)), []byte{1})
		}
		if err := primary.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}

	f, err := Open(Options{
		Dir:   t.TempDir(),
		Fetch: LocalFetcher{Src: NewSource(primary)},
		// No idle poll inside the test: every fetch counted is one the
		// bootstrap needed, plus the one that found it caught up.
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var waits, fetches atomic.Int64
	f.store.SetObserver(&kvstore.Observer{CommitWaitSeconds: func(time.Duration) { waits.Add(1) }})
	f.SetObserver(&Observer{FetchSeconds: func(time.Duration) { fetches.Add(1) }})
	f.Start()

	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if st := f.Status(); st.CaughtUp && f.Stats().LiveKeys == batches*perBatch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v, %d keys", f.Status(), f.Stats().LiveKeys)
		}
	}
	w, n := waits.Load(), fetches.Load()
	t.Logf("%d durability waits over %d fetches", w, n)
	if w > n {
		t.Errorf("%d durability waits for %d fetched chunks: more than one per chunk", w, n)
	}
	for _, i := range []int{0, batches*perBatch/2 + 7, batches*perBatch - 1} {
		if _, ok := f.Get([]byte(fmt.Sprintf("rev:%012d", i))); !ok {
			t.Errorf("key %d missing on the follower", i)
		}
	}
}
