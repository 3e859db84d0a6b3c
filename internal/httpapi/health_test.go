package httpapi

// End-to-end tests for GET /v2/health: the 200→503 flip on a sticky
// WAL failure (and its stickiness), the degraded verdict for a
// follower that can't measure its lag, the burn-rate probe seeing real
// 5xx traffic, the privacy contract on the response body, and the
// transition counter on the scrape.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"p2drm/internal/kvstore"
	"p2drm/internal/obs"
	"p2drm/internal/replica"
)

// TestHealthEndpoint: a healthy wired server answers 200 at guest tier
// with every expected component present and the SLO windows attached.
func TestHealthEndpoint(t *testing.T) {
	h := newV2Harness(t, Auth{UserToken: "u", AdminToken: "a"})
	hr, code, err := h.client.HealthV2()
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if hr.Status != string(obs.HealthOK) {
		t.Fatalf("aggregate = %q: %+v", hr.Status, hr.Components)
	}
	for _, comp := range []string{
		"store:provider:wal", "store:provider:compaction",
		"slo:burn_rate", "slo:slow_requests",
	} {
		if _, ok := hr.Components[comp]; !ok {
			t.Errorf("component %q missing: %+v", comp, hr.Components)
		}
	}
	// One store, one set of store probes.
	for comp := range hr.Components {
		if strings.HasPrefix(comp, "store:") && !strings.HasPrefix(comp, "store:provider:") {
			t.Errorf("component %q probes a store the server does not run", comp)
		}
	}
	// The daemon runs no precompute pool, so nothing probes one.
	if c, ok := hr.Components["crypto:pools"]; ok {
		t.Errorf("component crypto:pools present: %+v", c)
	}
	if len(hr.SLO) != 2 || hr.SLO[0].Label != "5m" || hr.SLO[1].Label != "1h" {
		t.Fatalf("slo windows: %+v", hr.SLO)
	}
	// Ordinary instrumented routes feed the SLO tracker; the health
	// endpoint itself is meta-monitoring and must not (its 503s would
	// otherwise keep the burn window hot on a failing node).
	if _, err := h.client.Catalog(); err != nil {
		t.Fatal(err)
	}
	hr2, _, err := h.client.HealthV2()
	if err != nil {
		t.Fatal(err)
	}
	if hr2.SLO[0].Requests != 1 {
		t.Fatalf("SLO 5m requests = %d, want exactly the 1 catalog request (health polls excluded): %+v",
			hr2.SLO[0].Requests, hr2.SLO)
	}
}

// TestHealthWALPoisonSticky: injecting a sticky WAL fsync failure
// flips /v2/health from 200 to 503, the verdict is attributed to the
// store's wal component, and it STAYS 503 on re-evaluation — sticky
// means no self-healing.
func TestHealthWALPoisonSticky(t *testing.T) {
	h := newV2Harness(t, Auth{})
	if _, code, err := h.client.HealthV2(); err != nil || code != http.StatusOK {
		t.Fatalf("pre-poison: code=%d err=%v", code, err)
	}
	before := h.server.Obs().Health.Transitions()

	h.store.PoisonWAL(errors.New("fsync: injected disk failure"))
	for i := 0; i < 3; i++ { // sticky: every evaluation agrees
		hr, code, err := h.client.HealthV2()
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusServiceUnavailable {
			t.Fatalf("eval %d: status = %d, want 503", i, code)
		}
		if hr.Status != string(obs.HealthFailing) {
			t.Fatalf("eval %d: aggregate = %q", i, hr.Status)
		}
		c := hr.Components["store:provider:wal"]
		if c.Status != obs.HealthFailing || !strings.Contains(c.Detail, "injected disk failure") {
			t.Fatalf("eval %d: wal component %+v", i, c)
		}
	}

	// Exactly one component flip + one overall flip, logged and counted
	// once — not once per evaluation.
	if got := h.server.Obs().Health.Transitions() - before; got != 2 {
		t.Errorf("transitions = %d, want 2 (component + overall)", got)
	}
	// The transition counter and status gauge ride the ordinary scrape.
	m := scrapeHarness(t, h)
	if v, ok := m.Value("p2drm_health_status", nil); !ok || v != 2 {
		t.Errorf("p2drm_health_status = %v ok=%v, want 2 (failing)", v, ok)
	}
	if v, ok := m.Value("p2drm_health_transitions_total", nil); !ok || v < 2 {
		t.Errorf("p2drm_health_transitions_total = %v ok=%v", v, ok)
	}
}

// TestHealthReplicaLag: a replica server whose follower has never
// measured lag against the primary reports degraded (200 — it can
// still serve reads), with the lag-known gauge at 0 and the lag gauges
// at the -1 sentinel; once caught up it flips to ok and lag-known 1.
// This is the satellite regression test: a scrape must be able to tell
// "never reached the primary" from "at horizon".
func TestHealthReplicaLag(t *testing.T) {
	// A durable primary with a replica source, so the follower can
	// genuinely catch up (the provider endpoints are not exercised).
	store, err := kvstore.OpenWith(t.TempDir(), kvstore.Options{Sync: kvstore.SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	for i := 0; i < 50; i++ {
		if err := store.Put([]byte(fmt.Sprintf("k:%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	pts := httptest.NewServer(NewServer(nil).
		WithStoreStats("provider", store).
		WithReplicaSource("provider", replica.NewSource(store)))
	t.Cleanup(pts.Close)

	f, err := replica.Open(replica.Options{
		Fetch:        NewReplicaFetcher(NewClient(pts.URL, nil), "provider"),
		PollInterval: 10 * time.Millisecond,
		BackoffMin:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	rs := NewReplicaServer(map[string]*replica.Follower{"provider": f})

	// Not started: lag unknown → degraded, not ok and not caught-up.
	hr, code := replicaHealth(t, rs)
	if code != http.StatusOK {
		t.Fatalf("degraded must answer 200, got %d", code)
	}
	if hr.Status != string(obs.HealthDegraded) {
		t.Fatalf("aggregate = %q: %+v", hr.Status, hr.Components)
	}
	c := hr.Components["replica:provider"]
	if c.Status != obs.HealthDegraded {
		t.Fatalf("unstarted follower not degraded: %+v", c)
	}
	m := scrapeReplica(t, rs)
	if v, ok := m.Value("p2drm_replica_lag_known", map[string]string{"store": "provider"}); !ok || v != 0 {
		t.Errorf("lag_known = %v ok=%v, want 0 while unmeasured", v, ok)
	}
	if v, ok := m.Value("p2drm_replica_lag_segments", map[string]string{"store": "provider"}); !ok || v != -1 {
		t.Errorf("lag_segments = %v ok=%v, want -1 sentinel", v, ok)
	}
	if v, ok := m.Value("p2drm_replica_lag_bytes", map[string]string{"store": "provider"}); !ok || v != -1 {
		t.Errorf("lag_bytes = %v ok=%v, want -1 sentinel", v, ok)
	}

	// Catch up: the probe recovers and the gauges flip together.
	f.Start()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := f.Status()
		if st.CaughtUp && st.LagSegments == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	hr, code = replicaHealth(t, rs)
	if code != http.StatusOK || hr.Components["replica:provider"].Status != obs.HealthOK {
		t.Fatalf("caught-up follower: code=%d %+v", code, hr.Components["replica:provider"])
	}
	m = scrapeReplica(t, rs)
	if v, ok := m.Value("p2drm_replica_lag_known", map[string]string{"store": "provider"}); !ok || v != 1 {
		t.Errorf("lag_known = %v ok=%v, want 1 once measured", v, ok)
	}
	if v, ok := m.Value("p2drm_replica_lag_segments", map[string]string{"store": "provider"}); !ok || v != 0 {
		t.Errorf("lag_segments = %v ok=%v, want 0 at horizon", v, ok)
	}
}

// TestHealthBurnRate: a flood of real 5xx responses routed through the
// instrument wrapper pushes the short+long windows over the failing
// burn threshold and /v2/health answers 503 — the SLO feeding back
// into health.
func TestHealthBurnRate(t *testing.T) {
	h := newV2Harness(t, Auth{})
	// Feed the tracker a synthetic 5xx flood (no route is rigged to
	// 500 on demand; endpoint-to-tracker wiring is pinned by
	// TestHealthEndpoint). This test covers the probe-to-health
	// feedback: a breached SLO must flip the endpoint to 503.
	slo := h.server.Obs().SLO
	for i := 0; i < 2000; i++ {
		slo.Observe(500, time.Millisecond)
	}
	hr, code, err := h.client.HealthV2()
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable || hr.Status != string(obs.HealthFailing) {
		t.Fatalf("burn-rate breach not failing: code=%d %+v", code, hr.Components["slo:burn_rate"])
	}
	if c := hr.Components["slo:burn_rate"]; c.Status != obs.HealthFailing {
		t.Fatalf("burn_rate component: %+v", c)
	}
	// The health endpoint's own 503s must NOT feed the SLO tracker:
	// otherwise a readiness poller hitting a failing node keeps the
	// short window burning and the node can never recover.
	before := hr.SLO
	for i := 0; i < 10; i++ {
		if _, code, err := h.client.HealthV2(); err != nil || code != http.StatusServiceUnavailable {
			t.Fatalf("health poll %d: code=%d err=%v", i, code, err)
		}
	}
	hr, _, err = h.client.HealthV2()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range hr.SLO {
		if w.Requests != before[i].Requests || w.Errors != before[i].Errors {
			t.Errorf("window %s: health polls fed the SLO tracker: %d/%d requests, %d/%d errors",
				w.Label, before[i].Requests, w.Requests, before[i].Errors, w.Errors)
		}
	}
}

// TestHealthNoIdentifiers: the full health body on a wired server —
// component names, details, SLO fields — carries no per-user identity
// vocabulary. Same denylist as the metrics lint.
func TestHealthNoIdentifiers(t *testing.T) {
	h := newV2Harness(t, Auth{})
	// Drive real traffic first so details are populated.
	if _, err := h.client.Catalog(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(h.srv.URL + "/v2/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env rawEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("health body is not an envelope: %v", err)
	}
	body := strings.ToLower(string(raw))
	for _, w := range obs.Denylist {
		if strings.Contains(body, w) {
			t.Errorf("health body contains denylisted %q:\n%s", w, body)
		}
	}
}

// replicaHealth fetches /v2/health from a ReplicaServer handler.
func replicaHealth(t *testing.T, rs *ReplicaServer) (*HealthResponse, int) {
	t.Helper()
	srv := httptest.NewServer(rs)
	defer srv.Close()
	hr, code, err := NewClient(srv.URL, nil).HealthV2()
	if err != nil {
		t.Fatal(err)
	}
	return hr, code
}

func scrapeReplica(t *testing.T, rs *ReplicaServer) *obs.Metrics {
	t.Helper()
	srv := httptest.NewServer(rs)
	defer srv.Close()
	raw, err := NewClient(srv.URL, nil).MetricsV2()
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ParseMetrics(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}
