package replica_test

// End-to-end replication over real HTTP: a primary httpapi.Server
// shipping segments, a follower daemon surface (httpapi.ReplicaServer)
// serving read-only traffic, and the client SDK on both sides — the
// same wiring cmd/p2drmd uses for -replica-of. Runs under -race in CI.

import (
	"context"
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
	// Primary: two durable stores (provider carries a real revocation
	// list), small segments so the manifest has real shape.
	kvOpts := kvstore.Options{Sync: kvstore.SyncGroupCommit, SegmentBytes: 2048}
	provStore, err := kvstore.OpenWith(t.TempDir(), kvOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer provStore.Close()
	bankStore, err := kvstore.OpenWith(t.TempDir(), kvOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer bankStore.Close()

	const n = 300
	for i := 0; i < n; i++ {
		if err := provStore.Put([]byte(fmt.Sprintf("lic:%05d", i)), []byte(fmt.Sprintf("license-%05d", i))); err != nil {
			t.Fatal(err)
		}
		if err := bankStore.Put([]byte(fmt.Sprintf("spent:%05d", i)), []byte{1}); err != nil {
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

	// The provider endpoints are not exercised here; the replica and kv
	// endpoints don't touch s.Provider.
	primarySrv := httpapi.NewServer(nil).
		WithStoreStats("provider", provStore).
		WithStoreStats("bank", bankStore).
		WithReplicaSource("provider", replica.NewSource(provStore)).
		WithReplicaSource("bank", replica.NewSource(bankStore))
	pts := httptest.NewServer(primarySrv)
	defer pts.Close()
	pc := httpapi.NewClient(pts.URL, nil)

	// Followers: exactly the cmd/p2drmd -replica-of wiring.
	followers := make(map[string]*replica.Follower, 2)
	for _, name := range []string{"provider", "bank"} {
		f, err := replica.Open(replica.Options{
			Dir:          t.TempDir(),
			Fetch:        httpapi.NewReplicaFetcher(pc, name),
			PollInterval: 10 * time.Millisecond,
			BackoffMin:   10 * time.Millisecond,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		f.Start()
		followers[name] = f
	}
	rts := httptest.NewServer(httpapi.NewReplicaServer(followers))
	defer rts.Close()
	rc := httpapi.NewClient(rts.URL, nil)

	waitCaughtUp := func(extra string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			st, err := rc.ReplicaStatus()
			if err == nil && st.Role == "replica" {
				ok := true
				for name, rs := range st.Replica {
					if !rs.CaughtUp || rs.LagBytes != 0 {
						ok = false
						_ = name
					}
				}
				if ok && sameLiveSet(followers["provider"], provStore) && sameLiveSet(followers["bank"], bankStore) {
					return
				}
			}
			time.Sleep(15 * time.Millisecond)
		}
		st, _ := rc.ReplicaStatus()
		t.Fatalf("replica never caught up (%s): %+v", extra, st)
	}
	waitCaughtUp("bootstrap")

	// Identical Get results through the SDK on both daemons, and lag 0.
	for _, key := range []string{"lic:00000", "lic:00123", fmt.Sprintf("lic:%05d", n-1)} {
		pv, pok, err := pc.KVGet("provider", []byte(key))
		if err != nil {
			t.Fatal(err)
		}
		rv, rok, err := rc.KVGet("provider", []byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if !pok || !rok || string(pv) != string(rv) {
			t.Fatalf("key %q differs: primary (%q,%v) replica (%q,%v)", key, pv, pok, rv, rok)
		}
	}
	// Identical Stats where identity is required: the live logical set.
	pStats, err := pc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	rStats, err := rc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"provider", "bank"} {
		if pStats.Stores[name].LiveKeys != rStats.Stores[name].LiveKeys ||
			pStats.Stores[name].LiveBytes != rStats.Stores[name].LiveBytes {
			t.Fatalf("store %s stats differ: primary %+v replica %+v", name, pStats.Stores[name], rStats.Stores[name])
		}
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

	// Async resync via the /v2 operations plane: re-bootstrap the
	// provider follower from a fresh snapshot while serving, then prove
	// it converges to the same live set again.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	op, err := rc.ResyncReplica("provider")
	if err != nil {
		t.Fatal(err)
	}
	op, err = rc.WaitOperation(ctx, op.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	var resynced httpapi.ResyncResult
	if err := httpapi.OperationResult(op, &resynced); err != nil {
		t.Fatalf("resync operation failed: %v (op %+v)", err, op)
	}
	if len(resynced.Resynced) != 1 || resynced.Resynced[0] != "provider" {
		t.Fatalf("resync result = %+v", resynced)
	}
	waitCaughtUp("after async resync")

	// Promotion as a /v2 background operation: the same write now
	// succeeds.
	op, err = rc.PromoteAsync()
	if err != nil {
		t.Fatal(err)
	}
	op, err = rc.WaitOperation(ctx, op.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	var promoted httpapi.PromoteResult
	if err := httpapi.OperationResult(op, &promoted); err != nil {
		t.Fatalf("promote operation failed: %v (op %+v)", err, op)
	}
	if len(promoted.Promoted) != 2 {
		t.Fatalf("promote result = %+v", promoted)
	}
	// Promotion is idempotent.
	if op, err = rc.PromoteAsync(); err == nil {
		op, err = rc.WaitOperation(ctx, op.ID, 0)
	}
	if err != nil || httpapi.OperationResult(op, nil) != nil {
		t.Fatalf("second promote: %v (op %+v)", err, op)
	}
	if err := rc.KVPut("provider", []byte("rogue"), []byte("x")); err != nil {
		t.Fatalf("promoted replica rejected write: %v", err)
	}
	if v, ok, _ := rc.KVGet("provider", []byte("rogue")); !ok || string(v) != "x" {
		t.Fatal("promoted write not readable back")
	}
}
