package replica_test

// End-to-end replication over real HTTP: a primary httpapi.Server
// shipping segments, a follower daemon surface (httpapi.ReplicaServer)
// serving read-only traffic, and the client SDK on both sides — the
// same wiring cmd/p2drmd uses for -replica-of. Runs under -race in CI.

import (
	"crypto/rand"
	"fmt"
	"net/http"
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
	primarySrv := httpapi.NewServer(nil).WithStore(provStore)
	pts := httptest.NewServer(primarySrv)
	defer pts.Close()
	pc := httpapi.NewClient(pts.URL, nil)

	// The follower: exactly the cmd/p2drmd -replica-of wiring.
	f, err := replica.Open(replica.Options{
		Dir:          t.TempDir(),
		Fetch:        httpapi.NewReplicaFetcher(pc),
		PollInterval: 10 * time.Millisecond,
		BackoffMin:   10 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Start()
	rts := httptest.NewServer(httpapi.NewReplicaServer(f))
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

	// Neither role has a raw-write route: a key-value write is not found.
	rawPut := func(role, base string) {
		t.Helper()
		resp, err := http.Post(base+"/v2/kv/put", "application/json",
			strings.NewReader(`{"key":"cm9ndWU=","value":"eA=="}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: POST /v2/kv/put answered %d, want 404", role, resp.StatusCode)
		}
	}
	rawPut("primary", pts.URL)
	rawPut("replica", rts.URL)

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
	resynced, err := rc.ResyncReplica()
	if err != nil {
		t.Fatal(err)
	}
	if len(resynced.Resynced) != 1 || resynced.Resynced[0] != "provider" {
		t.Fatalf("resync result = %+v", resynced)
	}
	waitCaughtUp("after resync")

	// Promotion over /v2: once it has answered, the store Promote returns
	// takes writes, and the follower reads them back.
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
	st, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte("rogue"), []byte("x")); err != nil {
		t.Fatalf("write through the promoted store: %v", err)
	}
	if v, ok := f.Get([]byte("rogue")); !ok || string(v) != "x" {
		t.Fatal("promoted write not readable back")
	}
	rawPut("promoted replica", rts.URL)
}
