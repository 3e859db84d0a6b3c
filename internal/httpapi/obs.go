package httpapi

// The REST plane's observability surface. Every route registered
// through v2raw is wrapped by instrument: a per-request
// trace (threaded via context down to the kvstore span points), a
// status-capturing writer, and per-route/per-status counters and
// latency histograms. The /v2/metrics endpoint renders the server's
// whole registry in Prometheus text format at guest tier — it carries
// only aggregates, so exposing it is no more sensitive than /v2/stats —
// while the retained slow-trace ring is admin-only.
//
// Route labels are always the registered pattern ("/v2/catalog",
// "/v2/replica/segment/{id}"), never the raw request path, so label
// cardinality is bounded by the route table.

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"p2drm/internal/kvstore"
	"p2drm/internal/obs"
	"p2drm/internal/replica"
)

// Obs exposes the server's observability plane (the registry
// /v2/metrics renders, the health probes, the SLO windows) so the
// daemon can set its SLO target.
func (a *api) Obs() *obs.Plane { return a.obs }

// WithTraceRetention replaces the server's tracer: retain up to size
// finished traces at or above slow (0 retains every request), logging
// slow requests through logger (nil = slog.Default at emit time). For
// tests and operators tuning the slow threshold.
func (s *Server) WithTraceRetention(size int, slow time.Duration, logger *slog.Logger) *Server {
	s.obs.Tracer = obs.NewTracer(size, slow, logger)
	return s
}

// statusWriter captures the response status code for metrics and
// tracing; an implicit WriteHeader (first Write) counts as 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards streaming flushes (segment and content downloads).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// instrument wraps one route's handler with tracing, auth enforcement
// and metrics. Auth runs INSIDE the wrapper so denied requests are
// counted and traced under their route like any other outcome.
func (a *api) instrument(method, path string, tier Tier, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := obs.NewTrace(method + " " + path)
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
		sw := &statusWriter{ResponseWriter: w}
		if e := a.auth.check(r, tier); e != nil {
			writeEnvErr(sw, e)
		} else {
			r.Body = http.MaxBytesReader(sw, r.Body, maxRequestBody)
			h(sw, r)
		}
		dur := time.Since(tr.Start)
		code := sw.code()
		status := strconv.Itoa(code)
		a.httpReqs.With(method, path, status).Inc()
		a.httpLat.With(method, path, status).ObserveDuration(dur)
		// The health report is meta-monitoring, not service traffic: a
		// 503 from /v2/health is a verdict, and counting it as an SLO
		// error would let readiness pollers keep the burn-rate window
		// hot forever once the node turns failing.
		if path != "/v2/health" {
			a.obs.SLO.Observe(code, dur)
		}
		a.obs.Tracer.Finish(tr, code, dur)
	}
}

// TracesResponse answers GET /v2/debug/traces: the retained
// slow-request traces, newest first.
type TracesResponse struct {
	Threshold string            `json:"threshold"`
	Total     int64             `json:"total"` // slow requests since start, incl. evicted
	Traces    []obs.TraceRecord `json:"traces"`
}

func (a *api) epTraces(r *http.Request) (any, *apiError) {
	return TracesResponse{
		Threshold: a.obs.Tracer.Threshold().String(),
		Total:     a.obs.Tracer.SlowTotal(),
		Traces:    a.obs.Tracer.Slow(),
	}, nil
}

// registerObsRoutes mounts /v2/metrics (guest — aggregate-only by
// construction), the admin slow-trace ring and the health report.
func (a *api) registerObsRoutes() {
	a.v2raw("GET", "/v2/metrics", TierGuest, a.obs.Reg.Handler().ServeHTTP)
	a.v2("GET", "/v2/debug/traces", TierAdmin, a.epTraces)
	a.registerHealth()

	// Read the tracer through a.obs at scrape time, so replacing it
	// (WithTraceRetention) after route registration keeps the counter
	// honest.
	a.obs.Reg.CounterFunc("p2drm_http_slow_requests_total",
		"Requests at or above the slow-trace threshold.",
		func() int64 { return a.obs.Tracer.SlowTotal() })
}

// registerStoreMetrics exports the kvstore's engine statistics as
// gauges (and its monotonic compaction tallies as counters), labeled
// store=storeName.
func registerStoreMetrics(reg *obs.Registry, st *kvstore.Store) {
	segs := reg.GaugeVec("p2drm_kvstore_segments", "Log segment files, including the active one.", "store")
	keys := reg.GaugeVec("p2drm_kvstore_live_keys", "Live keys in the index.", "store")
	liveB := reg.GaugeVec("p2drm_kvstore_live_bytes", "Estimated log bytes of a fully compacted live set.", "store")
	logB := reg.GaugeVec("p2drm_kvstore_logged_bytes", "On-disk bytes across all segments.", "store")
	deadB := reg.GaugeVec("p2drm_kvstore_dead_bytes", "Logged bytes minus live bytes (compactor food supply).", "store")
	comps := reg.CounterVec("p2drm_kvstore_compactions_total", "Completed incremental compaction steps.", "store")
	skips := reg.CounterVec("p2drm_kvstore_compaction_skips_total", "Compaction steps skipped because the segment was provably all-live.", "store")
	segs.Func(func() float64 { return float64(st.Stats().Segments) }, storeName)
	keys.Func(func() float64 { return float64(st.Stats().LiveKeys) }, storeName)
	liveB.Func(func() float64 { return float64(st.Stats().LiveBytes) }, storeName)
	logB.Func(func() float64 { return float64(st.Stats().LoggedBytes) }, storeName)
	deadB.Func(func() float64 { return float64(st.Stats().DeadBytes) }, storeName)
	comps.Func(func() int64 { return st.Stats().Compactions }, storeName)
	skips.Func(func() int64 { return st.Stats().CompactionSkips }, storeName)
}

// registerCryptoMetrics exports whether the group generator's
// fixed-base table is built and how much ownership-proof verification
// went through the provider's combined check.
func (s *Server) registerCryptoMetrics() {
	reg := s.obs.Reg
	reg.GaugeFunc("p2drm_crypto_group_precomputed",
		"1 when fixed-base Schnorr group tables are precomputed.", func() float64 {
			if s.Provider.Group().Precomputed() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("p2drm_crypto_batch_verify_runs_total", "Batch Schnorr verification runs.", func() int64 {
		runs, _, _ := s.Provider.BatchVerifyStats()
		return int64(runs)
	})
	reg.CounterFunc("p2drm_crypto_batch_verify_items_total", "Proofs verified inside batch runs.", func() int64 {
		_, items, _ := s.Provider.BatchVerifyStats()
		return int64(items)
	})
	reg.CounterFunc("p2drm_crypto_batch_verify_rejected_total", "Proofs rejected by batch runs (incl. fallback rescans).", func() int64 {
		_, _, rejected := s.Provider.BatchVerifyStats()
		return int64(rejected)
	})
}

// registerRevocationMetrics exports how signed-filter downloads were
// answered: from the artefact cached for the current filter state, or by
// marshalling and signing a new one.
func (s *Server) registerRevocationMetrics() {
	exports := s.obs.Reg.CounterVec("p2drm_revocation_filter_exports_total",
		"Signed revocation filter exports, by whether the cached artefact was returned or a new one was signed.", "result")
	exports.Func(func() int64 {
		cached, _ := s.Provider.RevocationExportStats()
		return int64(cached)
	}, "cached")
	exports.Func(func() int64 {
		_, signed := s.Provider.RevocationExportStats()
		return int64(signed)
	}, "signed")
}

// registerNonceMetrics exports the size of the provider's only nonce
// state: nonces that were presented and can still be replayed. Handing
// out challenges does not move it.
func (s *Server) registerNonceMetrics() {
	s.obs.Reg.GaugeFunc("p2drm_provider_nonces_consumed",
		"Challenge nonces presented under the current or the previous beacon, held to refuse a replay.",
		func() float64 { return float64(s.Provider.ConsumedNonces()) })
}

// registerKEMMetrics exports how license key wraps got their share of the
// encapsulation: from the provider's per-recipient cache, or by computing
// it. Two process-wide counters, no recipient in sight.
func (s *Server) registerKEMMetrics() {
	shares := s.obs.Reg.CounterVec("p2drm_crypto_kem_shares_total",
		"License key wraps, by whether the recipient's KEM share was cached or had to be computed (first license to an enc key).", "result")
	shares.Func(func() int64 {
		cached, _ := s.Provider.KEMShareStats()
		return int64(cached)
	}, "cached")
	shares.Func(func() int64 {
		_, computed := s.Provider.KEMShareStats()
		return int64(computed)
	}, "computed")
}

// rsaPrivateOps is the family counting RSA private-key operations by the
// role of the key — "license" (the provider key: one per signed root,
// plus each newly cut revocation filter), "denomination"
// (blind exchange signatures, every denomination together), "coin" (the
// bank's blind signatures). It is the count behind a serving path's RSA
// cost: a 16-license batch flow reads 2 + 16 + 32.
func (s *Server) rsaPrivateOps() *obs.CounterVec {
	return s.obs.Reg.CounterVec("p2drm_crypto_rsa_private_ops_total",
		"RSA private-key operations, by the role of the key that ran them.", "key")
}

// registerRSAMetrics exports the provider's two key roles; WithBank adds
// the bank's.
func (s *Server) registerRSAMetrics() {
	ops := s.rsaPrivateOps()
	ops.Func(func() int64 {
		n, _ := s.Provider.RSAPrivateOps()
		return int64(n)
	}, "license")
	ops.Func(func() int64 {
		_, n := s.Provider.RSAPrivateOps()
		return int64(n)
	}, "denomination")
}

// registerFollowerMetrics exports the follower's replication status as
// gauges (lag) and counters (applied records/bytes, resyncs), labeled
// store=storeName.
func registerFollowerMetrics(reg *obs.Registry, f *replica.Follower) {
	lagB := reg.GaugeVec("p2drm_replica_lag_bytes", "Bytes between the follower cursor and the primary durable horizon.", "store")
	lagS := reg.GaugeVec("p2drm_replica_lag_segments", "Whole primary segments behind the active one (-1 = unknown).", "store")
	caught := reg.GaugeVec("p2drm_replica_caught_up", "1 when the follower is tailing the durable horizon.", "store")
	known := reg.GaugeVec("p2drm_replica_lag_known", "1 when lag has been measured against the primary; 0 while unknown (lag gauges read -1).", "store")
	recs := reg.CounterVec("p2drm_replica_records_applied_total", "Log records applied to the local store.", "store")
	bytes := reg.CounterVec("p2drm_replica_bytes_applied_total", "Log bytes applied to the local store.", "store")
	resyncs := reg.CounterVec("p2drm_replica_resyncs_total", "Snapshot re-bootstraps (startup and fallback).", "store")
	lagB.Func(func() float64 { return float64(f.Status().LagBytes) }, storeName)
	lagS.Func(func() float64 { return float64(f.Status().LagSegments) }, storeName)
	caught.Func(func() float64 {
		if f.Status().CaughtUp {
			return 1
		}
		return 0
	}, storeName)
	known.Func(func() float64 {
		if f.Status().LagSegments >= 0 {
			return 1
		}
		return 0
	}, storeName)
	recs.Func(func() int64 { return f.Status().Records }, storeName)
	bytes.Func(func() int64 { return f.Status().Bytes }, storeName)
	resyncs.Func(func() int64 { return f.Status().Resyncs }, storeName)
}

// MetricsV2 fetches the raw Prometheus text exposition from
// /v2/metrics (parse with obs.ParseMetrics).
func (c *Client) MetricsV2() ([]byte, error) {
	resp, err := c.stream("/v2/metrics")
	if err != nil {
		return nil, err
	}
	return readBody(resp)
}

// TracesV2 fetches the retained slow-request traces (admin tier).
func (c *Client) TracesV2() (*TracesResponse, error) {
	var resp TracesResponse
	if err := c.call("GET", "/v2/debug/traces", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
