package httpapi

// Tests for the observability surface: the /v2/metrics exposition over
// a fully wired server, per-route counters with auth outcomes included,
// slow-trace retention and its admin endpoint, and the metrics-name
// lint — on a server carrying every family the daemon can register, no
// metric or label NAME may contain the vocabulary of per-user identity
// (serial, account, card). Values are covered by the workload
// unlinkability test.

import (
	"bytes"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"p2drm/internal/obs"
	"p2drm/internal/replica"
)

// scrapeHarness fetches and parses the harness server's /v2/metrics.
func scrapeHarness(t *testing.T, h *v2Harness) *obs.Metrics {
	t.Helper()
	raw, err := h.client.MetricsV2()
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ParseMetrics(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMetricsEndpoint: /v2/metrics serves parsable Prometheus text at
// guest tier, covering the http/kvstore/ops/crypto families, and the
// per-route counters attribute requests to their registered pattern
// and status — including auth denials.
func TestMetricsEndpoint(t *testing.T) {
	h := newV2Harness(t, Auth{UserToken: "u", AdminToken: "a"})

	// Traffic with distinct outcomes: a guest 200, a 401 (user tier, no
	// token), and the scrape itself.
	if _, err := h.client.Catalog(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.client.TracesV2(); err == nil {
		t.Fatal("guest reached the admin traces endpoint")
	}

	m := scrapeHarness(t, h)
	for _, fam := range []string{
		"p2drm_http_requests_total",
		"p2drm_http_request_duration_seconds",
		"p2drm_http_slow_requests_total",
		"p2drm_kvstore_segments",
		"p2drm_kvstore_compactions_total",
		"p2drm_crypto_group_precomputed",
		"p2drm_crypto_batch_verify_runs_total",
	} {
		if _, ok := m.Types[fam]; !ok {
			t.Errorf("family %q missing from scrape", fam)
		}
	}
	if v, ok := m.Value("p2drm_http_requests_total",
		map[string]string{"method": "GET", "route": "/v2/catalog", "status": "200"}); !ok || v < 1 {
		t.Errorf("catalog request not counted: ok=%v v=%v", ok, v)
	}
	if v, ok := m.Value("p2drm_http_requests_total",
		map[string]string{"route": "/v2/debug/traces", "status": "401"}); !ok || v < 1 {
		t.Errorf("auth denial not counted under its route: ok=%v v=%v", ok, v)
	}
	if c, ok := m.Value("p2drm_http_request_duration_seconds_count",
		map[string]string{"route": "/v2/catalog"}); !ok || c < 1 {
		t.Errorf("latency histogram empty for catalog: ok=%v c=%v", ok, c)
	}
	// Store gauges carry the registered store label values only.
	if _, ok := m.Value("p2drm_kvstore_segments", map[string]string{"store": "provider"}); !ok {
		t.Error("provider store gauge missing")
	}
}

// TestSlowTraceRing: with a zero threshold every request is retained;
// the admin endpoint returns them newest-first with route-pattern
// names, and the slow counter tracks the total.
func TestSlowTraceRing(t *testing.T) {
	h := newV2Harness(t, Auth{UserToken: "u", AdminToken: "a"})
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	h.server.WithTraceRetention(8, 0, quiet)

	if _, err := h.client.Catalog(); err != nil {
		t.Fatal(err)
	}
	admin := NewClient(h.srv.URL, nil)
	admin.Token = "a"
	tr, err := admin.TracesV2()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Threshold != "0s" {
		t.Errorf("threshold = %q", tr.Threshold)
	}
	if len(tr.Traces) == 0 || tr.Total < int64(len(tr.Traces)) {
		t.Fatalf("ring empty or total inconsistent: %+v", tr)
	}
	// Newest first: the most recent retained trace is the catalog GET
	// (the traces request itself finishes after the snapshot is taken).
	found := false
	for _, rec := range tr.Traces {
		if rec.Name == "GET /v2/catalog" && rec.Status == 200 && rec.Duration > 0 {
			found = true
		}
		if rec.ID == "" {
			t.Errorf("trace without ID: %+v", rec)
		}
	}
	if !found {
		t.Errorf("catalog request not in ring: %+v", tr.Traces)
	}
	// The replaced tracer must feed the scrape-time slow counter.
	m := scrapeHarness(t, h)
	if v, ok := m.Value("p2drm_http_slow_requests_total", nil); !ok || v < 1 {
		t.Errorf("slow counter not following replaced tracer: ok=%v v=%v", ok, v)
	}
}

// TestMetricsNameLint is the denylist audit over a maximally wired
// registry: the v2 harness server (http + kvstore stats + ops + crypto
// families) plus the engine-observer families and a live replica
// server's follower families. Registration itself panics on these
// words — this test proves the wired surface stays clean end to end
// and pins the denylist against accidental weakening.
func TestMetricsNameLint(t *testing.T) {
	h := newV2Harness(t, Auth{})
	plane := h.server.Obs()
	// Register the engine-observer families the daemon wires at boot.
	StoreObserver(plane, "provider")
	FollowerObserver(plane, "provider")

	// A real follower against the live harness primary brings in the
	// replica status families.
	f, err := replica.Open(replica.Options{
		Fetch:        NewReplicaFetcher(h.client, "provider"),
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	rs := NewReplicaServer(map[string]*replica.Follower{"provider": f})

	deny := []string{"serial", "account", "card"}
	audit := func(srvName string, fams map[string][]string) {
		if len(fams) == 0 {
			t.Fatalf("%s: no families registered — lint is vacuous", srvName)
		}
		for fam, labels := range fams {
			lf := strings.ToLower(fam)
			for _, w := range deny {
				if strings.Contains(lf, w) {
					t.Errorf("%s: metric name %q contains denylisted %q", srvName, fam, w)
				}
				for _, l := range labels {
					if strings.Contains(strings.ToLower(l), w) {
						t.Errorf("%s: label %q on %q contains denylisted %q", srvName, l, fam, w)
					}
				}
			}
		}
	}
	audit("primary", plane.Reg.Families())
	audit("replica", rs.Obs().Reg.Families())

	// The registry must keep refusing denylisted registrations — the
	// lint above is only meaningful while this holds.
	for _, bad := range []struct{ name, label string }{
		{"p2drm_serials_issued_total", ""},
		{"p2drm_bank_ok_total", "account"},
		{"p2drm_smartcard_ops_total", ""},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %q/%q did not panic", bad.name, bad.label)
				}
			}()
			if bad.label != "" {
				plane.Reg.CounterVec(bad.name, "x", bad.label)
			} else {
				plane.Reg.Counter(bad.name, "x")
			}
		}()
	}
}
