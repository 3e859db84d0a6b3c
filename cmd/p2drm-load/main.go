// Command p2drm-load drives a live p2drmd topology over HTTP with a
// named traffic scenario and prints a machine-readable JSON report:
// per-operation latency histograms (p50/p90/p99/p999/max), error
// tallies, and achieved vs target RPS.
//
//	p2drm-load -list
//	p2drm-load -primary http://127.0.0.1:8080 -lab -scenario mixed -rps 20 -duration 5s
//	p2drm-load -primary http://127.0.0.1:8080 -replicas http://127.0.0.1:8081 -lab \
//	    -scenario flashcrowd -rps 10 -duration 10s -out report.json
//
// The scenario trace is a pure function of -seed, so runs are
// reproducible; reads a replica can serve (stats, revocation checks)
// round-robin across -replicas, writes always hit -primary.
//
// The primary's /v2/stats and /v2/metrics are sampled immediately
// before and after the run, so the report pairs the client-observed
// latency histograms with the server-observed ones (rebuilt from the
// Prometheus scrape delta) and attributes engine work — logged bytes,
// compactions, batch proof verification — to the run rather than to the
// daemon's lifetime.
//
// Two saturation modes ride on the same executor:
//
//	-sweep steps the arrival rate geometrically (-sweep-start ×
//	-sweep-factor, up to -sweep-steps) running one -duration step at
//	each rate, and stops at the first step that sheds arrivals,
//	misses -slo-availability, blows -slo-p99, or flips the server's
//	/v2/health to 503. The JSON capacity curve names the last
//	sustainable rate and the breach that ended the climb. Errors at
//	saturation are the measurement, not a failure: sweep exits 0.
//
//	-soak runs the ordinary scenario but samples the merged latency
//	histogram every -soak-interval and reports the per-interval view
//	(hist deltas, not cumulative), so drift over a long run — leaks,
//	compaction stalls, pool exhaustion — shows up as a time series.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/httpapi"
	"p2drm/internal/kvstore"
	"p2drm/internal/obs"
	"p2drm/internal/workload"
	"p2drm/internal/workload/hist"
)

// Report is the command's JSON output envelope.
type Report struct {
	Scenario string               `json:"scenario"`
	Seed     int64                `json:"seed"`
	Users    int                  `json:"users"`
	Primary  string               `json:"primary"`
	Replicas []string             `json:"replicas,omitempty"`
	Phases   []workload.Phase     `json:"phases"`
	Result   *workload.LoadResult `json:"result"`
	// ServerStatsStart/ServerStats are the primary's /v2/stats snapshots
	// sampled right before and right after the run: the store engine
	// gauges. Either is absent when its call fails — the run result stands
	// on its own.
	ServerStatsStart *httpapi.StatsResponse `json:"server_stats_start,omitempty"`
	ServerStats      *httpapi.StatsResponse `json:"server_stats,omitempty"`
	// ServerDelta attributes the engine work between the two snapshots to
	// this run, and carries the batch-verify counter deltas and the
	// server-observed HTTP latency percentiles read off the /v2/metrics
	// scrape pair.
	ServerDelta *ServerDelta `json:"server_delta,omitempty"`
	// Soak is the per-interval latency series (-soak mode only): each
	// point covers just its interval, not the run so far.
	Soak []SoakPoint `json:"soak,omitempty"`
}

// SoakPoint is one -soak interval: counts and the latency summary for
// the requests that completed during that interval alone (consecutive
// cumulative snapshots differenced via hist.Sub).
type SoakPoint struct {
	Elapsed  time.Duration `json:"elapsed_ns"`
	ElapsedS string        `json:"elapsed"`
	Sent     int64         `json:"sent"`
	Errors   int64         `json:"errors"`
	Shed     int64         `json:"shed"`
	Latency  hist.Summary  `json:"latency"`
}

// SweepReport is the -sweep mode's JSON output: the capacity curve.
type SweepReport struct {
	Scenario        string        `json:"scenario"`
	Seed            int64         `json:"seed"`
	Primary         string        `json:"primary"`
	StepDuration    time.Duration `json:"step_duration_ns"`
	SLOP99          time.Duration `json:"slo_p99_ns"`
	SLOAvailability float64       `json:"slo_availability"`
	Steps           []SweepStep   `json:"steps"`
	// StopReason names what ended the climb: shed, slo-availability,
	// slo-latency, health, cancelled, or max-steps.
	StopReason string `json:"stop_reason"`
	// CapacityRPS is the highest achieved rate of a step that met every
	// criterion (0 if even the first step breached).
	CapacityRPS float64 `json:"capacity_rps"`
}

// SweepStep is one rung of the capacity ladder.
type SweepStep struct {
	Step         int           `json:"step"`
	TargetRPS    float64       `json:"target_rps"`
	AchievedRPS  float64       `json:"achieved_rps"`
	Sent         int64         `json:"sent"`
	Errors       int64         `json:"errors"`
	Shed         int64         `json:"shed"`
	Availability float64       `json:"availability"`
	P50          time.Duration `json:"p50_ns"`
	P99          time.Duration `json:"p99_ns"`
	P99S         string        `json:"p99"`
	// Health is the server's aggregate /v2/health verdict sampled right
	// after the step ("unavailable" against a pre-health daemon).
	Health     string `json:"health"`
	HealthCode int    `json:"health_code,omitempty"`
	// Breach names the first criterion this step failed, empty if none.
	Breach string `json:"breach,omitempty"`
}

// ServerDelta is what the primary did DURING the run: element-wise
// differences of the /v2/stats engine counters, and — from the start and
// end /v2/metrics scrapes — the batch-verify counter deltas and the
// server-side HTTP request-latency histogram reconstructed from the
// Prometheus bucket deltas. Pairing HTTPLatency with Result's client
// histograms separates queueing/network time from server processing
// time.
type ServerDelta struct {
	Stores      map[string]kvstore.Stats `json:"stores,omitempty"`
	Crypto      *CryptoDelta             `json:"crypto,omitempty"`
	HTTPLatency *obs.HistSummary         `json:"http_latency_seconds,omitempty"`
}

// CryptoDelta is the run's share of the provider's batch proof
// verification counters.
type CryptoDelta struct {
	BatchVerifyRuns     uint64 `json:"batch_verify_runs"`
	BatchVerifyItems    uint64 `json:"batch_verify_items"`
	BatchVerifyRejected uint64 `json:"batch_verify_rejected"`
}

// cryptoDelta differences the batch-verify counters between two scrapes;
// nil when either scrape lacks one of them.
func cryptoDelta(start, end *obs.Metrics) *CryptoDelta {
	var d [3]uint64
	for i, fam := range []string{
		"p2drm_crypto_batch_verify_runs_total",
		"p2drm_crypto_batch_verify_items_total",
		"p2drm_crypto_batch_verify_rejected_total",
	} {
		s, okS := start.Value(fam, nil)
		e, okE := end.Value(fam, nil)
		if !okS || !okE {
			return nil
		}
		d[i] = uint64(e - s)
	}
	return &CryptoDelta{BatchVerifyRuns: d[0], BatchVerifyItems: d[1], BatchVerifyRejected: d[2]}
}

// scrapeMetrics fetches and parses /v2/metrics; nil (with a log line)
// when the endpoint is unavailable, e.g. against a pre-metrics daemon.
func scrapeMetrics(c *httpapi.Client, when string) *obs.Metrics {
	raw, err := c.MetricsV2()
	if err != nil {
		log.Printf("p2drm-load: %s metrics scrape unavailable: %v", when, err)
		return nil
	}
	m, err := obs.ParseMetrics(bytes.NewReader(raw))
	if err != nil {
		log.Printf("p2drm-load: %s metrics scrape unparsable: %v", when, err)
		return nil
	}
	return m
}

// statsDelta computes end-start over the engine counters. Gauge-like
// fields (LiveKeys, Segments) are differenced too: the result reads as
// "grew by N during the run" and may be negative after compaction.
func statsDelta(start, end *httpapi.StatsResponse) *ServerDelta {
	if start == nil || end == nil {
		return nil
	}
	d := &ServerDelta{Stores: make(map[string]kvstore.Stats, len(end.Stores))}
	for name, e := range end.Stores {
		s := start.Stores[name] // zero value if the store is new
		d.Stores[name] = kvstore.Stats{
			Segments:        e.Segments - s.Segments,
			LiveKeys:        e.LiveKeys - s.LiveKeys,
			LiveBytes:       e.LiveBytes - s.LiveBytes,
			LoggedBytes:     e.LoggedBytes - s.LoggedBytes,
			DeadBytes:       e.DeadBytes - s.DeadBytes,
			Compactions:     e.Compactions - s.Compactions,
			CompactionSkips: e.CompactionSkips - s.CompactionSkips,
			IndexShards:     e.IndexShards,
		}
	}
	return d
}

func main() {
	log.SetFlags(0)
	var (
		primary  = flag.String("primary", "http://127.0.0.1:8080", "primary daemon base URL (writes and primary-only reads)")
		replicas = flag.String("replicas", "", "comma-separated replica base URLs (serve stats/revocation reads)")
		scenario = flag.String("scenario", "mixed", "scenario name (see -list)")
		list     = flag.Bool("list", false, "list scenarios and exit")
		rps      = flag.Float64("rps", 20, "base arrival rate (open loop)")
		duration = flag.Duration("duration", 5*time.Second, "total schedule length")
		conc     = flag.Int("concurrency", 64, "max in-flight requests; excess arrivals are shed")
		users    = flag.Int("users", 16, "simulated user population")
		contents = flag.Int("contents", 8, "catalog slots the trace spreads over")
		ops      = flag.Int("ops", 0, "trace length (default: enough to cover the schedule)")
		seed     = flag.Int64("seed", 1, "trace seed (same seed, same request trace)")
		readFrac = flag.Float64("read-fraction", 0.9, "read share for the mixed scenario")
		token    = flag.String("token", "", "bearer token for user-tier endpoints (register/purchase/withdraw)")
		admin    = flag.String("admin-token", "", "bearer token for account creation (defaults to -token)")
		lab      = flag.Bool("lab", false, "laboratory group parameters (match p2drmd -lab)")
		funds    = flag.Int64("funds", 0, "per-user account balance (default 1e6)")
		prefix   = flag.String("account-prefix", "", "bank account namespace (default: random per run)")
		out      = flag.String("out", "", "write the JSON report to this file instead of stdout")

		sweep        = flag.Bool("sweep", false, "capacity sweep: step RPS geometrically until shed, SLO breach, or server 503; emits the capacity curve JSON")
		sweepStart   = flag.Float64("sweep-start", 0, "first sweep step RPS (default -rps)")
		sweepFactor  = flag.Float64("sweep-factor", 1.5, "RPS multiplier between sweep steps")
		sweepSteps   = flag.Int("sweep-steps", 8, "maximum sweep steps")
		sloP99       = flag.Duration("slo-p99", 250*time.Millisecond, "client-observed p99 objective a sweep step must stay under")
		sloAvail     = flag.Float64("slo-availability", 0.999, "availability objective (1 - errors/sent) a sweep step must meet")
		soak         = flag.Bool("soak", false, "sample the run periodically and report per-interval latency (drift detection)")
		soakInterval = flag.Duration("soak-interval", 10*time.Second, "snapshot interval for -soak")
	)
	flag.Parse()

	if *list {
		for _, s := range workload.Scenarios {
			fmt.Printf("%-12s %s\n", s.Name, s.Desc)
		}
		return
	}

	s, err := workload.FindScenario(*scenario)
	if err != nil {
		log.Fatalf("p2drm-load: %v", err)
	}
	group := schnorr.Group2048()
	if *lab {
		group = schnorr.Group768()
	}
	mkClient := func(url, tok string) *httpapi.Client {
		c := httpapi.NewClient(url, group)
		c.Token = tok
		return c
	}
	topo := workload.Topology{Primary: mkClient(*primary, *token)}
	var replicaURLs []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			replicaURLs = append(replicaURLs, u)
			topo.Replicas = append(topo.Replicas, mkClient(u, *token))
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Account creation is admin-tier; run it with the stronger token
	// while load traffic keeps the user token.
	if *admin == "" {
		*admin = *token
	}
	ex, err := workload.NewExecutor(ctx, topo, *users, *seed, workload.ExecOptions{
		AccountPrefix: *prefix,
		Funds:         *funds,
		Admin:         mkClient(*primary, *admin),
	})
	if err != nil {
		log.Fatalf("p2drm-load: setup: %v", err)
	}

	cfg := workload.ScenarioConfig{
		Seed:         *seed,
		Users:        *users,
		Contents:     *contents,
		Ops:          *ops,
		RPS:          *rps,
		Duration:     *duration,
		ReadFraction: *readFrac,
		MaxInFlight:  *conc,
	}

	if *sweep {
		runSweep(ctx, ex, s, cfg, topo, sweepParams{
			start:    *sweepStart,
			factor:   *sweepFactor,
			steps:    *sweepSteps,
			sloP99:   *sloP99,
			sloAvail: *sloAvail,
			primary:  *primary,
			out:      *out,
		})
		return
	}

	var soakPoints []SoakPoint
	if *soak {
		var prev workload.SamplePoint
		cfg.SampleEvery = *soakInterval
		cfg.OnSample = func(sp workload.SamplePoint) {
			// Difference against the previous cumulative snapshot: each
			// point stands for its interval alone.
			d := hist.Sub(sp.Hist, prev.Hist)
			soakPoints = append(soakPoints, SoakPoint{
				Elapsed:  sp.Elapsed,
				ElapsedS: sp.Elapsed.Round(time.Millisecond).String(),
				Sent:     sp.Sent - prev.Sent,
				Errors:   sp.Errors - prev.Errors,
				Shed:     sp.Shed - prev.Shed,
				Latency:  d.Snapshot(),
			})
			prev = sp
		}
	}

	// Snapshot the server view AFTER executor setup (account creation,
	// withdrawals) so the delta covers exactly the scenario traffic.
	startStats, err := topo.Primary.Stats()
	if err != nil {
		log.Printf("p2drm-load: start stats snapshot unavailable: %v", err)
		startStats = nil
	}
	startMetrics := scrapeMetrics(topo.Primary, "start")

	log.Printf("p2drm-load: scenario %q against %s (%d replicas), %g rps for %s",
		s.Name, *primary, len(topo.Replicas), *rps, *duration)
	res, err := ex.RunScenario(ctx, s, cfg)
	if err != nil {
		log.Fatalf("p2drm-load: %v", err)
	}

	rep := Report{
		Scenario: s.Name,
		Seed:     *seed,
		Users:    *users,
		Primary:  *primary,
		Replicas: replicaURLs,
		Phases:   s.Schedule(cfg),
		Result:   res,
		Soak:     soakPoints,
	}
	rep.ServerStatsStart = startStats
	if st, err := topo.Primary.Stats(); err != nil {
		log.Printf("p2drm-load: server stats snapshot unavailable: %v", err)
	} else {
		rep.ServerStats = st
	}
	rep.ServerDelta = statsDelta(rep.ServerStatsStart, rep.ServerStats)
	if endMetrics := scrapeMetrics(topo.Primary, "end"); startMetrics != nil && endMetrics != nil {
		if rep.ServerDelta == nil {
			rep.ServerDelta = &ServerDelta{}
		}
		rep.ServerDelta.Crypto = cryptoDelta(startMetrics, endMetrics)
		if sum, ok := obs.HistogramDelta(startMetrics, endMetrics,
			"p2drm_http_request_duration_seconds", nil); ok {
			rep.ServerDelta.HTTPLatency = &sum
		}
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("p2drm-load: encode report: %v", err)
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			log.Fatalf("p2drm-load: %v", err)
		}
	} else {
		os.Stdout.Write(enc)
	}
	for _, kind := range res.Kinds() {
		sum := res.Ops[kind]
		log.Printf("p2drm-load: %-18s n=%-6d err=%-4d p50=%s p99=%s p999=%s",
			kind, sum.Count, sum.Errors, sum.Latency.P50S, sum.Latency.P99S, sum.Latency.P999S)
	}
	if d := rep.ServerDelta; d != nil && d.HTTPLatency != nil {
		h := d.HTTPLatency
		log.Printf("p2drm-load: server-side http      n=%-6d p50=%s p99=%s p999=%s",
			h.Count, time.Duration(h.P50*1e9), time.Duration(h.P99*1e9), time.Duration(h.P999*1e9))
	}
	for _, sp := range soakPoints {
		log.Printf("p2drm-load: soak %-10s n=%-6d err=%-4d shed=%-4d p50=%s p99=%s",
			sp.ElapsedS, sp.Sent, sp.Errors, sp.Shed, sp.Latency.P50S, sp.Latency.P99S)
	}
	if res.Errors > 0 {
		os.Exit(1)
	}
}

// sweepParams bundles the -sweep knobs.
type sweepParams struct {
	start    float64
	factor   float64
	steps    int
	sloP99   time.Duration
	sloAvail float64
	primary  string
	out      string
}

// mergedHist folds every op kind's histogram into one client-side view.
func mergedHist(res *workload.LoadResult) *hist.Hist {
	m := hist.New()
	for _, kind := range res.Kinds() {
		m.Merge(res.Hist(workload.OpKind(kind)))
	}
	return m
}

// runSweep climbs the RPS ladder one scenario run per step and stops at
// the first step that sheds, misses the SLO, or flips the server's
// health to 503. Errors at saturation are the measurement — the sweep
// exits 0 unless it cannot even run.
func runSweep(ctx context.Context, ex *workload.Executor, s *workload.Scenario,
	cfg workload.ScenarioConfig, topo workload.Topology, p sweepParams) {
	if p.start <= 0 {
		p.start = cfg.RPS
	}
	if p.factor <= 1 {
		p.factor = 1.5
	}
	if p.steps <= 0 {
		p.steps = 8
	}
	rep := SweepReport{
		Scenario:        s.Name,
		Seed:            cfg.Seed,
		Primary:         p.primary,
		StepDuration:    cfg.Duration,
		SLOP99:          p.sloP99,
		SLOAvailability: p.sloAvail,
	}
	for i := 0; i < p.steps && ctx.Err() == nil; i++ {
		stepCfg := cfg
		stepCfg.RPS = p.start * math.Pow(p.factor, float64(i))
		log.Printf("p2drm-load: sweep step %d/%d at %.1f rps for %s",
			i+1, p.steps, stepCfg.RPS, cfg.Duration)
		res, err := ex.RunScenario(ctx, s, stepCfg)
		if err != nil {
			log.Fatalf("p2drm-load: sweep step %d: %v", i+1, err)
		}
		merged := mergedHist(res)
		avail := 1.0
		if res.Sent > 0 {
			avail = 1 - float64(res.Errors)/float64(res.Sent)
		}
		p99 := time.Duration(merged.Quantile(0.99))
		st := SweepStep{
			Step:         i + 1,
			TargetRPS:    stepCfg.RPS,
			AchievedRPS:  res.AchievedRPS,
			Sent:         res.Sent,
			Errors:       res.Errors,
			Shed:         res.Shed,
			Availability: avail,
			P50:          time.Duration(merged.Quantile(0.50)),
			P99:          p99,
			P99S:         p99.Round(time.Microsecond).String(),
		}
		if hr, code, err := topo.Primary.HealthV2(); err != nil {
			st.Health = "unavailable"
		} else {
			st.Health, st.HealthCode = hr.Status, code
		}
		switch {
		case res.Shed > 0:
			st.Breach = "shed"
		case avail < p.sloAvail:
			st.Breach = "slo-availability"
		case p99 > p.sloP99:
			st.Breach = "slo-latency"
		case st.HealthCode == http.StatusServiceUnavailable:
			st.Breach = "health"
		}
		rep.Steps = append(rep.Steps, st)
		log.Printf("p2drm-load: sweep step %d: achieved %.1f rps, p99=%s, avail=%.4f, shed=%d, health=%s%s",
			st.Step, st.AchievedRPS, st.P99S, st.Availability, st.Shed, st.Health,
			map[bool]string{true: " BREACH:" + st.Breach, false: ""}[st.Breach != ""])
		if st.Breach != "" {
			rep.StopReason = st.Breach
			break
		}
		rep.CapacityRPS = st.AchievedRPS
	}
	if rep.StopReason == "" {
		if ctx.Err() != nil {
			rep.StopReason = "cancelled"
		} else {
			rep.StopReason = "max-steps"
		}
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("p2drm-load: encode sweep report: %v", err)
	}
	enc = append(enc, '\n')
	if p.out != "" {
		if err := os.WriteFile(p.out, enc, 0o644); err != nil {
			log.Fatalf("p2drm-load: %v", err)
		}
	} else {
		os.Stdout.Write(enc)
	}
	log.Printf("p2drm-load: sweep done: capacity %.1f rps, stop reason %q after %d steps",
		rep.CapacityRPS, rep.StopReason, len(rep.Steps))
}
