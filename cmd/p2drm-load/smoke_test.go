package main

// load-smoke: build the real binaries, boot a primary + one replica,
// drive a short mixed scenario at low RPS through p2drm-load, and fail
// on any non-2xx (the command exits non-zero if the report counts any
// error) or on an empty histogram in the parsed report. This is the
// end-to-end proof that the load harness, the daemon topology, and the
// replica read routing compose.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p2drm/internal/obs"
	"p2drm/internal/workload"
)

// freePort reserves an ephemeral port long enough to hand it to a
// daemon about to bind it.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// waitReady polls the daemon's /v2/health until it answers 200 (ok or
// degraded — both mean "can serve") or the deadline passes. Readiness
// rides the health plane instead of guessing at a representative route.
func waitReady(t *testing.T, baseURL string, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		resp, err := http.Get(baseURL + "/v2/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("daemon at %s not healthy after %s", baseURL, deadline)
}

func startDaemon(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
}

// scrape fetches and parses /v2/metrics from a live daemon.
func scrape(t *testing.T, baseURL string) *obs.Metrics {
	t.Helper()
	resp, err := http.Get(baseURL + "/v2/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("scrape %s: status %d: %s", baseURL, resp.StatusCode, body)
	}
	m, err := obs.ParseMetrics(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", baseURL, err)
	}
	return m
}

// coreFamilies is the metric surface the observability docs promise; a
// scrape of a freshly booted primary must already expose every one.
var coreFamilies = []string{
	"p2drm_http_requests_total",
	"p2drm_http_request_duration_seconds",
	"p2drm_http_slow_requests_total",
	"p2drm_kvstore_segments",
	"p2drm_kvstore_live_keys",
	"p2drm_kvstore_compactions_total",
	"p2drm_crypto_group_precomputed",
	"p2drm_crypto_batch_verify_runs_total",
	"p2drm_crypto_batch_verify_items_total",
	"p2drm_crypto_batch_verify_rejected_total",
	"p2drm_health_status",
	"p2drm_health_transitions_total",
	"p2drm_slo_availability_ratio",
	"p2drm_slo_latency_burn_rate",
}

func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons; skipped in -short")
	}
	bin := t.TempDir()
	p2drmd := filepath.Join(bin, "p2drmd")
	p2drmLoad := filepath.Join(bin, "p2drm-load")
	for path, pkg := range map[string]string{p2drmd: "p2drm/cmd/p2drmd", p2drmLoad: "p2drm/cmd/p2drm-load"} {
		out, err := exec.Command("go", "build", "-o", path, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}

	primaryPort := freePort(t)
	replicaPort := freePort(t)
	primaryURL := fmt.Sprintf("http://127.0.0.1:%d", primaryPort)
	replicaURL := fmt.Sprintf("http://127.0.0.1:%d", replicaPort)

	// Durable state on both sides: an in-memory primary has no WAL to
	// ship, which would leave the replica in permanent snapshot
	// fallback instead of actually replicating.
	startDaemon(t, p2drmd, "-lab", "-state", filepath.Join(bin, "primary-state"),
		"-addr", fmt.Sprintf("127.0.0.1:%d", primaryPort))
	waitReady(t, primaryURL, 30*time.Second)
	startDaemon(t, p2drmd, "-lab", "-seed-demo=false", "-state", filepath.Join(bin, "replica-state"),
		"-addr", fmt.Sprintf("127.0.0.1:%d", replicaPort), "-replica-of", primaryURL)
	waitReady(t, replicaURL, 30*time.Second)

	// Pre-run scrape: every core family must exist before any load —
	// families register at construction, not first increment.
	startMetrics := scrape(t, primaryURL)
	for _, fam := range coreFamilies {
		if _, ok := startMetrics.Types[fam]; !ok {
			t.Errorf("core metric family %q missing from /v2/metrics", fam)
		}
	}
	replicaMetrics := scrape(t, replicaURL)
	for _, fam := range []string{"p2drm_replica_lag_bytes", "p2drm_replica_lag_segments", "p2drm_replica_lag_known", "p2drm_replica_records_applied_total"} {
		if _, ok := replicaMetrics.Types[fam]; !ok {
			t.Errorf("replica metric family %q missing from replica /v2/metrics", fam)
		}
	}

	report := filepath.Join(bin, "report.json")
	cmd := exec.Command(p2drmLoad,
		"-lab", "-primary", primaryURL, "-replicas", replicaURL,
		"-scenario", "mixed", "-rps", "20", "-duration", "5s",
		"-users", "4", "-seed", "7", "-out", report)
	out, err := cmd.CombinedOutput()
	if err != nil {
		// The command exits non-zero when any request failed (non-2xx):
		// that IS the smoke failure.
		t.Fatalf("p2drm-load failed: %v\n%s", err, out)
	}
	t.Logf("p2drm-load:\n%s", out)

	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Scenario string               `json:"scenario"`
		Result   *workload.LoadResult `json:"result"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v\n%s", err, raw)
	}
	res := rep.Result
	if rep.Scenario != "mixed" || res == nil {
		t.Fatalf("malformed report: %s", raw)
	}
	if res.Sent == 0 {
		t.Fatal("report: nothing sent")
	}
	if res.Errors != 0 {
		t.Fatalf("report counts %d errors: %s", res.Errors, raw)
	}
	if len(res.Ops) == 0 {
		t.Fatal("report has no per-op sections")
	}
	for kind, sum := range res.Ops {
		if sum.Count > 0 && (sum.Latency.Count == 0 || sum.Latency.Max == 0) {
			t.Errorf("op %s: %d requests but empty histogram", kind, sum.Count)
		}
	}
	if res.AchievedRPS <= 0 {
		t.Error("report: achieved RPS missing")
	}

	// Post-run scrape: every counter family must be monotonic across the
	// run, and the HTTP request counter must have absorbed the load.
	endMetrics := scrape(t, primaryURL)
	for _, fam := range endMetrics.CounterFamilies() {
		endSum, _ := endMetrics.SumValues(fam, nil)
		startSum, n := startMetrics.SumValues(fam, nil)
		if n > 0 && endSum < startSum {
			t.Errorf("counter family %q went backwards: %v -> %v", fam, startSum, endSum)
		}
	}
	startReqs, _ := startMetrics.SumValues("p2drm_http_requests_total", nil)
	endReqs, _ := endMetrics.SumValues("p2drm_http_requests_total", nil)
	if endReqs-startReqs < float64(res.Sent)/2 {
		t.Errorf("server counted %v requests during a run that sent %d", endReqs-startReqs, res.Sent)
	}
	if sum, ok := obs.HistogramDelta(startMetrics, endMetrics,
		"p2drm_http_request_duration_seconds", nil); !ok || sum.Count == 0 {
		t.Error("server-side HTTP latency histogram empty across the run")
	}

	// The report must carry the paired server view (satellite of the
	// same run: stats delta, batch-verify deltas read off the metrics
	// scrapes, server-side percentiles).
	var full struct {
		ServerStatsStart json.RawMessage `json:"server_stats_start"`
		ServerDelta      *struct {
			Crypto      *CryptoDelta     `json:"crypto"`
			HTTPLatency *obs.HistSummary `json:"http_latency_seconds"`
		} `json:"server_delta"`
	}
	if err := json.Unmarshal(raw, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.ServerStatsStart) == 0 || strings.TrimSpace(string(full.ServerStatsStart)) == "null" {
		t.Error("report missing server_stats_start snapshot")
	}
	if full.ServerDelta == nil || full.ServerDelta.HTTPLatency == nil || full.ServerDelta.HTTPLatency.Count == 0 {
		t.Error("report missing server-side latency delta")
	}
	if full.ServerDelta == nil || full.ServerDelta.Crypto == nil {
		t.Error("report missing the batch-verify delta")
	}

	// One capacity-sweep step against the live topology: the curve
	// machinery (stepped run, merged client p99, post-step health
	// verdict, JSON schema) end to end. A single low-rate step must not
	// breach anything.
	sweepOut := filepath.Join(bin, "sweep.json")
	cmd = exec.Command(p2drmLoad,
		"-lab", "-primary", primaryURL,
		"-scenario", "mixed", "-sweep", "-sweep-steps", "1",
		"-rps", "15", "-duration", "2s", "-users", "4", "-seed", "11",
		"-slo-p99", "2s", "-out", sweepOut)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("p2drm-load -sweep failed: %v\n%s", err, out)
	} else {
		t.Logf("sweep:\n%s", out)
	}
	rawSweep, err := os.ReadFile(sweepOut)
	if err != nil {
		t.Fatal(err)
	}
	var sw struct {
		Steps []struct {
			Step        int     `json:"step"`
			AchievedRPS float64 `json:"achieved_rps"`
			Sent        int64   `json:"sent"`
			P99         int64   `json:"p99_ns"`
			Health      string  `json:"health"`
			Breach      string  `json:"breach"`
		} `json:"steps"`
		StopReason  string  `json:"stop_reason"`
		CapacityRPS float64 `json:"capacity_rps"`
	}
	if err := json.Unmarshal(rawSweep, &sw); err != nil {
		t.Fatalf("sweep report not valid JSON: %v\n%s", err, rawSweep)
	}
	if len(sw.Steps) != 1 || sw.StopReason != "max-steps" {
		t.Fatalf("sweep: want 1 clean step, got %s", rawSweep)
	}
	st := sw.Steps[0]
	if st.Sent == 0 || st.AchievedRPS <= 0 || st.P99 <= 0 {
		t.Errorf("sweep step empty: %+v", st)
	}
	if st.Health == "" || st.Health == "unavailable" || st.Health == "failing" {
		t.Errorf("sweep step health = %q, want a live ok/degraded verdict", st.Health)
	}
	if sw.CapacityRPS <= 0 {
		t.Errorf("sweep capacity = %v, want > 0", sw.CapacityRPS)
	}
	// CI archives the curve when asked to.
	if dst := os.Getenv("P2DRM_SWEEP_OUT"); dst != "" {
		if err := os.WriteFile(dst, rawSweep, 0o644); err != nil {
			t.Errorf("archive sweep report: %v", err)
		}
	}

	// Short soak: the per-interval latency series must tile the run —
	// interval sent counts and histogram counts both sum to the totals.
	soakOut := filepath.Join(bin, "soak.json")
	cmd = exec.Command(p2drmLoad,
		"-lab", "-primary", primaryURL,
		"-scenario", "mixed", "-soak", "-soak-interval", "1s",
		"-rps", "15", "-duration", "3s", "-users", "4", "-seed", "13",
		"-out", soakOut)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("p2drm-load -soak failed: %v\n%s", err, out)
	}
	rawSoak, err := os.ReadFile(soakOut)
	if err != nil {
		t.Fatal(err)
	}
	var soak struct {
		Soak []struct {
			Sent    int64 `json:"sent"`
			Latency struct {
				Count int64 `json:"count"`
				P99   int64 `json:"p99_ns"`
			} `json:"latency"`
		} `json:"soak"`
		Result *workload.LoadResult `json:"result"`
	}
	if err := json.Unmarshal(rawSoak, &soak); err != nil {
		t.Fatalf("soak report not valid JSON: %v\n%s", err, rawSoak)
	}
	if len(soak.Soak) < 2 || soak.Result == nil {
		t.Fatalf("soak: want ≥ 2 interval points, got %s", rawSoak)
	}
	var intervalSent, intervalDone int64
	for _, sp := range soak.Soak {
		intervalSent += sp.Sent
		intervalDone += sp.Latency.Count
	}
	if intervalSent != soak.Result.Sent || intervalDone != soak.Result.Sent {
		t.Errorf("soak intervals do not tile the run: sent %d done %d want %d",
			intervalSent, intervalDone, soak.Result.Sent)
	}
}
