package replica_test

// End-to-end replication over real HTTP: a primary httpapi.Server
// shipping segments, a follower daemon surface (httpapi.ReplicaServer)
// serving read-only traffic, and the client SDK on both sides — the
// same wiring cmd/p2drmd uses for -replica-of. Runs under -race in CI.

import (
	"crypto/rand"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"p2drm/internal/httpapi"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/replica"
	"p2drm/internal/revocation"
)

func TestEndToEndHTTPReplication(t *testing.T) {
	// Primary: the daemon's one durable store, carrying provider records,
	// the bank's spent marks and a real revocation list, with small
	// segments so the manifest has real shape.
	kvOpts := kvstore.Options{Sync: kvstore.SyncGroupCommit, SegmentBytes: 2048}
	provStore, err := kvstore.OpenWith(t.TempDir(), kvOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer provStore.Close()

	const n = 300
	for i := 0; i < n; i++ {
		if err := provStore.Put([]byte(fmt.Sprintf("lic:%05d", i)), []byte(fmt.Sprintf("license-%05d", i))); err != nil {
			t.Fatal(err)
		}
		if err := provStore.Put([]byte(fmt.Sprintf("spent:%05d", i)), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	revList, err := revocation.Open(provStore, 0)
	if err != nil {
		t.Fatal(err)
	}
	var revoked, clean license.Serial
	rand.Read(revoked[:]) //nolint:errcheck
	rand.Read(clean[:])   //nolint:errcheck
	if err := revList.Add(revoked); err != nil {
		t.Fatal(err)
	}

	// The provider endpoints are not exercised here; the replica
	// endpoints don't touch s.Provider.
	primarySrv := httpapi.NewServer(nil).
		WithStoreStats("provider", provStore).
		WithReplicaSource("provider", replica.NewSource(provStore))
	pts := httptest.NewServer(primarySrv)
	defer pts.Close()
	pc := httpapi.NewClient(pts.URL, nil)

	// The follower: exactly the cmd/p2drmd -replica-of wiring.
	f, err := replica.Open(replica.Options{
		Dir:          t.TempDir(),
		Fetch:        httpapi.NewReplicaFetcher(pc, "provider"),
		PollInterval: 10 * time.Millisecond,
		BackoffMin:   10 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Start()
	rts := httptest.NewServer(httpapi.NewReplicaServer(map[string]*replica.Follower{"provider": f}))
	defer rts.Close()
	rc := httpapi.NewClient(rts.URL, nil)

	waitCaughtUp := func(extra string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			st, err := rc.ReplicaStatus()
			if err == nil && st.Role == "replica" {
				rs, ok := st.Replica["provider"]
				if ok && len(st.Replica) == 1 && rs.CaughtUp && rs.LagBytes == 0 && sameLiveSet(f, provStore) {
					return
				}
			}
			time.Sleep(15 * time.Millisecond)
		}
		st, _ := rc.ReplicaStatus()
		t.Fatalf("replica never caught up (%s): %+v", extra, st)
	}
	waitCaughtUp("bootstrap")

	// Identical Stats where identity is required: the live logical set.
	pStats, err := pc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	rStats, err := rc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(pStats.Stores) != 1 || len(rStats.Stores) != 1 ||
		pStats.Stores["provider"].LiveKeys != rStats.Stores["provider"].LiveKeys ||
		pStats.Stores["provider"].LiveBytes != rStats.Stores["provider"].LiveBytes {
		t.Fatalf("stats differ: primary %+v replica %+v", pStats.Stores, rStats.Stores)
	}

	// Writes to the follower are rejected with 403/ErrReadOnly.
	err = rc.KVPut("provider", []byte("rogue"), []byte("x"))
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower accepted a write (err=%v)", err)
	}

	// Exact revocation lookups on the replica.
	if got, err := rc.RevocationContains(revoked); err != nil || !got {
		t.Fatalf("replica revocation contains(revoked) = %v, %v", got, err)
	}
	if got, err := rc.RevocationContains(clean); err != nil || got {
		t.Fatalf("replica revocation contains(clean) = %v, %v", got, err)
	}

	// Primary compaction mid-stream: churn (so compaction rewrites
	// history the follower may be mid-read on), compact, keep writing.
	// The follower must converge — by gen-guard tail continuation or by
	// snapshot fallback.
	for i := 0; i < 400; i++ {
		if err := provStore.Put([]byte(fmt.Sprintf("hot:%d", i%7)), []byte(fmt.Sprintf("churn-%05d", i))); err != nil {
			t.Fatal(err)
		}
		if i%120 == 60 {
			if err := provStore.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := provStore.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := provStore.Put([]byte(fmt.Sprintf("post:%04d", i)), []byte("after-compaction")); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp("after mid-stream compaction")

	// Primary-side status is visible too.
	pst, err := pc.ReplicaStatus()
	if err != nil || pst.Role != "primary" {
		t.Fatalf("primary status: %+v, %v", pst, err)
	}
	if pst.Stores["provider"].Epoch == "" || pst.Stores["provider"].DurableOff == 0 {
		t.Errorf("primary status incomplete: %+v", pst.Stores["provider"])
	}

	// Resync over /v2: re-bootstrap the follower from a fresh
	// snapshot while serving; the answer comes when it is done, and the
	// follower converges to the same live set again.
	resynced, err := rc.ResyncReplica("provider")
	if err != nil {
		t.Fatal(err)
	}
	if len(resynced.Resynced) != 1 || resynced.Resynced[0] != "provider" || resynced.Errors != nil {
		t.Fatalf("resync result = %+v", resynced)
	}
	waitCaughtUp("after resync")

	// Promotion over /v2: once it has answered, the same write succeeds
	// on the very next request.
	promoted, err := rc.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if len(promoted.Promoted) != 1 || promoted.Promoted[0] != "provider" {
		t.Fatalf("promote result = %+v", promoted)
	}
	// Promotion is idempotent.
	if again, err := rc.Promote(); err != nil || len(again.Promoted) != 1 {
		t.Fatalf("second promote = %+v, %v", again, err)
	}
	if err := rc.KVPut("provider", []byte("rogue"), []byte("x")); err != nil {
		t.Fatalf("promoted replica rejected write: %v", err)
	}
	if v, ok := f.Get([]byte("rogue")); !ok || string(v) != "x" {
		t.Fatal("promoted write not readable back")
	}
}
