package httpapi

// GET /v2/health: the component-probe aggregate plus the rolling SLO
// windows, served at guest tier on both roles (and therefore on the
// admin unix socket, which mounts the same handler). The status code
// is the load-balancer contract: 200 while ok or degraded (keep
// routing, but look), 503 once any component is failing. Per-component
// detail carries only aggregates — ratios, depths, counts — under the
// same identity denylist as the metrics names.

import (
	"fmt"
	"net/http"
	"strings"

	"p2drm/internal/kvstore"
	"p2drm/internal/obs"
	"p2drm/internal/replica"
)

// Probe thresholds. Degraded keeps the daemon in rotation; failing
// flips /v2/health to 503.
const (
	// Compaction debt: degraded when the wasted-log fraction reaches
	// the ratio AND the absolute dead bytes are worth caring about
	// (a tiny store is always ratio-noisy).
	compactionDebtRatio    = 0.75
	compactionDebtMinBytes = 4 << 20

	// Replica lag in whole primary segments.
	replicaLagDegraded = 2
	replicaLagFailing  = 8

	// SLO burn-rate thresholds (multiwindow, see obs.SLO.BurnRateProbe):
	// 2x budget burn sustained across both windows is degraded, 10x is
	// failing.
	sloBurnDegraded = 2.0
	sloBurnFailing  = 10.0

	// Slow-trace rate: degraded when this fraction of short-window
	// requests crosses the slow-trace threshold.
	slowRateDegraded = 0.05
)

// HealthResponse is the GET /v2/health result payload.
type HealthResponse struct {
	Status     string               `json:"status"` // ok|degraded|failing
	Components map[string]obs.Check `json:"components,omitempty"`
	SLO        []obs.SLOWindow      `json:"slo,omitempty"`
}

// handleHealth evaluates every registered probe and answers with the
// aggregate. Unlike ordinary sync routes the envelope's status code is
// load-bearing, so the envelope is written by hand.
func (a *api) handleHealth(w http.ResponseWriter, r *http.Request) {
	rep := a.obs.Health.Eval()
	code := http.StatusOK
	if !rep.Status.Healthy() {
		code = http.StatusServiceUnavailable
	}
	writeEnvelope(w, envelope{
		Type: "sync", Status: http.StatusText(code), StatusCode: code,
		Result: HealthResponse{
			Status:     string(rep.Status),
			Components: rep.Components,
			SLO:        a.obs.SLO.Windows(),
		},
	})
}

// registerHealth mounts GET /v2/health, the health gauge/counter
// families, the p2drm_slo_* families, and the probes every role
// carries: SLO burn rate and slow-trace rate.
// Store, follower, and crypto probes are registered where those
// subsystems are wired.
func (a *api) registerHealth() {
	a.v2raw("GET", "/v2/health", TierGuest, a.handleHealth)

	reg := a.obs.Reg
	reg.GaugeFunc("p2drm_health_status",
		"Aggregate health state: 0 ok, 1 degraded, 2 failing.",
		func() float64 { return float64(a.obs.Health.Eval().Status.Severity()) })
	reg.CounterFunc("p2drm_health_transitions_total",
		"Health state transitions observed (per component plus overall).",
		func() int64 { return a.obs.Health.Transitions() })
	obs.RegisterSLOMetrics(reg, a.obs.SLO)

	// The slow-trace cumulative counter feeds the SLO ring so the slow
	// RATE over a window is answerable. Read through a.obs at sample
	// time so WithTraceRetention replacing the tracer stays honest.
	a.obs.SLO.SetSlowFunc(func() int64 { return a.obs.Tracer.SlowTotal() })

	a.obs.Health.Register("slo:burn_rate",
		a.obs.SLO.BurnRateProbe(sloBurnDegraded, sloBurnFailing))
	a.obs.Health.Register("slo:slow_requests",
		a.obs.SLO.SlowRateProbe(slowRateDegraded))
}

// registerStoreHealth adds one kvstore's probes: the sticky WAL
// failure (failing — the store refuses all further mutations) and
// compaction debt (degraded — the compactor is losing).
func registerStoreHealth(h *obs.Health, name string, st *kvstore.Store) {
	h.Register("store:"+name+":wal", func() obs.Check {
		if err := st.Health(); err != nil {
			return obs.Check{Status: obs.HealthFailing,
				Detail: "sticky WAL failure: " + err.Error()}
		}
		return obs.Check{Status: obs.HealthOK, Detail: "durability path healthy"}
	})
	h.Register("store:"+name+":compaction", func() obs.Check {
		ratio := st.GarbageRatio()
		dead := st.Stats().DeadBytes
		detail := fmt.Sprintf("garbage ratio %.2f, %d dead bytes", ratio, dead)
		if ratio >= compactionDebtRatio && dead > compactionDebtMinBytes {
			return obs.Check{Status: obs.HealthDegraded, Detail: detail}
		}
		return obs.Check{Status: obs.HealthOK, Detail: detail}
	})
}

// registerFollowerHealth adds one follower's probe. Unknown lag
// (LagSegments == -1: never reached the primary, or mid-transition) is
// degraded, NOT ok — a follower that can't measure its lag must not
// look caught up. Deep lag degrades then fails; error/stopped states
// fail outright.
func registerFollowerHealth(h *obs.Health, name string, f *replica.Follower) {
	h.Register("replica:"+name, func() obs.Check {
		st := f.Status()
		switch st.State {
		case "error":
			d := "replication error"
			if st.LastError != "" {
				d = "replication error: " + st.LastError
			}
			return obs.Check{Status: obs.HealthFailing, Detail: d}
		case "stopped":
			return obs.Check{Status: obs.HealthFailing, Detail: "follower stopped"}
		case "promoted":
			return obs.Check{Status: obs.HealthOK, Detail: "promoted to primary"}
		case "init", "snapshotting":
			return obs.Check{Status: obs.HealthDegraded,
				Detail: st.State + ": not yet tailing the primary"}
		}
		detail := fmt.Sprintf("lag %d segments / %d bytes, caught_up=%v",
			st.LagSegments, st.LagBytes, st.CaughtUp)
		switch {
		case st.LagSegments < 0:
			return obs.Check{Status: obs.HealthDegraded,
				Detail: "lag unknown (no measured primary contact)"}
		case st.LagSegments >= replicaLagFailing:
			return obs.Check{Status: obs.HealthFailing, Detail: detail}
		case st.LagSegments >= replicaLagDegraded:
			return obs.Check{Status: obs.HealthDegraded, Detail: detail}
		default:
			return obs.Check{Status: obs.HealthOK, Detail: detail}
		}
	})
}

// registerCryptoHealth adds the precompute-pool starvation probe: any
// pool persistently below its low-water refill threshold means the
// background fillers cannot keep up and hot-path requests are about to
// pay inline crypto cost.
func (s *Server) registerCryptoHealth() {
	s.obs.Health.Register("crypto:pools", func() obs.Check {
		cs := s.Provider.CryptoStats()
		var starved []string
		if p := cs.NoncePool; p != nil && p.Depth < p.LowWater {
			starved = append(starved,
				fmt.Sprintf("nonce pool %d/%d below low-water %d", p.Depth, p.Capacity, p.LowWater))
		}
		var bDepth, bCap, bLow int
		for _, p := range cs.BlindingPools {
			bDepth += p.Depth
			bCap += p.Capacity
			bLow += p.LowWater
		}
		if bCap > 0 && bDepth < bLow {
			starved = append(starved,
				fmt.Sprintf("blinding pools %d/%d below low-water %d", bDepth, bCap, bLow))
		}
		if len(starved) > 0 {
			return obs.Check{Status: obs.HealthDegraded, Detail: strings.Join(starved, "; ")}
		}
		return obs.Check{Status: obs.HealthOK, Detail: "pools at or above low-water"}
	})
}

// HealthV2 fetches GET /v2/health. It returns the payload AND the HTTP
// status code — 503 is an expected answer carrying a full report, not
// a transport failure, so it does not produce an error.
func (c *Client) HealthV2() (*HealthResponse, int, error) {
	var hr HealthResponse
	status, err := c.roundTrip("GET", "/v2/health", nil, &hr)
	if err != nil {
		return nil, status, err
	}
	return &hr, status, nil
}
