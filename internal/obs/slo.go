package obs

// Rolling multi-window SLO tracking over the request stream: the HTTP
// layer feeds every (status, latency) outcome in, the tracker keeps
// cumulative totals plus a time-stamped ring of snapshots, and any
// window up to the long horizon is answered as the delta between now
// and the newest snapshot old enough — the same cumulative-counter
// diffing a Prometheus burn-rate rule would do, without needing an
// external scraper.
//
// Two SLOs are tracked: availability (non-5xx ratio vs a target like
// 0.999) and latency (fraction of requests at or under the latency
// target vs an objective like 0.99). Each is expressed as a burn rate —
// error ratio divided by error budget — so 1.0 means "spending budget
// exactly as fast as sustainable" and the classic multiwindow alert
// (both the short AND long window burning hot) becomes a health probe.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// SLOConfig parameterizes a tracker; zero fields take the defaults
// noted on each.
type SLOConfig struct {
	// AvailabilityTarget is the non-5xx ratio objective (default 0.999).
	AvailabilityTarget float64
	// LatencyTarget is the per-request latency target (default 250ms).
	LatencyTarget time.Duration
	// LatencyObjective is the fraction of requests that must land at or
	// under LatencyTarget (default 0.99).
	LatencyObjective float64
	// SampleInterval paces ring snapshots (default 15s). Snapshots are
	// taken lazily on Observe/Window calls, so an idle server simply
	// stops sampling.
	SampleInterval time.Duration
	// ShortWindow/LongWindow are the two burn-rate horizons (defaults
	// 5m and 1h). The ring retains LongWindow/SampleInterval snapshots.
	ShortWindow, LongWindow time.Duration
	// MinRequests is the short-window traffic floor below which the
	// burn-rate probe reports ok — a handful of requests cannot breach
	// an SLO meaningfully (default 30).
	MinRequests int64
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.AvailabilityTarget <= 0 || c.AvailabilityTarget >= 1 {
		c.AvailabilityTarget = 0.999
	}
	if c.LatencyTarget <= 0 {
		c.LatencyTarget = 250 * time.Millisecond
	}
	if c.LatencyObjective <= 0 || c.LatencyObjective >= 1 {
		c.LatencyObjective = 0.99
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = 15 * time.Second
	}
	if c.ShortWindow <= 0 {
		c.ShortWindow = 5 * time.Minute
	}
	if c.LongWindow < c.ShortWindow {
		c.LongWindow = time.Hour
	}
	if c.MinRequests <= 0 {
		c.MinRequests = 30
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// sloSample is one cumulative snapshot: totals as of time t.
type sloSample struct {
	t                        time.Time
	total, errs, under, slow int64
}

// SLO tracks request outcomes against the availability and latency
// objectives. Observe is two-to-three atomic adds on the hot path;
// ring maintenance runs at most once per SampleInterval.
type SLO struct {
	cfg SLOConfig

	total atomic.Int64
	errs  atomic.Int64
	under atomic.Int64

	// slowFn, when set, is a cumulative slow-request counter (the
	// tracer's SlowTotal) sampled into the ring so the slow-trace RATE
	// over a window is answerable, not only the lifetime total.
	slowFn atomic.Pointer[func() int64]

	lastSampleNano atomic.Int64

	mu    sync.Mutex
	ring  []sloSample
	next  int
	n     int
	start time.Time
}

// NewSLO returns a tracker with cfg (zero fields defaulted).
func NewSLO(cfg SLOConfig) *SLO {
	cfg = cfg.withDefaults()
	slots := int(cfg.LongWindow/cfg.SampleInterval) + 2
	s := &SLO{cfg: cfg, ring: make([]sloSample, slots), start: cfg.Clock()}
	s.lastSampleNano.Store(s.start.UnixNano())
	return s
}

// LatencyTarget returns the per-request latency target.
func (s *SLO) LatencyTarget() time.Duration { return s.cfg.LatencyTarget }

// SetSlowFunc installs the cumulative slow-request counter sampled
// into the ring (typically the tracer's SlowTotal).
func (s *SLO) SetSlowFunc(fn func() int64) {
	if fn == nil {
		s.slowFn.Store(nil)
		return
	}
	s.slowFn.Store(&fn)
}

// Observe records one request outcome.
func (s *SLO) Observe(status int, d time.Duration) {
	s.total.Add(1)
	if status >= 500 {
		s.errs.Add(1)
	}
	if d <= s.cfg.LatencyTarget {
		s.under.Add(1)
	}
	s.maybeSample()
}

func (s *SLO) cumulative(now time.Time) sloSample {
	c := sloSample{
		t:     now,
		total: s.total.Load(),
		errs:  s.errs.Load(),
		under: s.under.Load(),
	}
	if fn := s.slowFn.Load(); fn != nil {
		c.slow = (*fn)()
	}
	return c
}

// maybeSample pushes a ring snapshot when SampleInterval has elapsed
// since the last one. The CAS keeps it one-writer without a lock on
// the hot path.
func (s *SLO) maybeSample() {
	now := s.cfg.Clock()
	last := s.lastSampleNano.Load()
	if now.UnixNano()-last < int64(s.cfg.SampleInterval) {
		return
	}
	if !s.lastSampleNano.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	snap := s.cumulative(now)
	s.mu.Lock()
	s.ring[s.next] = snap
	s.next = (s.next + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	s.mu.Unlock()
}

// SLOWindow is one rolling window's view of the request stream.
type SLOWindow struct {
	// Window is the requested horizon; Span is the stretch actually
	// covered (shorter while the process is younger than the window).
	Window time.Duration `json:"window_ns"`
	Label  string        `json:"window"`
	Span   time.Duration `json:"span_ns"`

	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"` // 5xx
	Slow     int64 `json:"slow,omitempty"`

	// Availability is the non-5xx ratio (1 with no traffic);
	// UnderTargetRatio is the fraction at or under the latency target.
	Availability     float64 `json:"availability"`
	UnderTargetRatio float64 `json:"under_target_ratio"`

	// Burn rates: error ratio over error budget. 1.0 = spending budget
	// exactly as fast as the objective allows; 0 with no traffic.
	AvailabilityBurn float64 `json:"availability_burn"`
	LatencyBurn      float64 `json:"latency_burn"`

	// SlowRatio is slow-trace-threshold crossings per request.
	SlowRatio float64 `json:"slow_ratio,omitempty"`
}

// base returns the snapshot to diff against for a window ending now:
// the newest ring entry at least w old, the process start (zeros) when
// the process is younger than w, else the oldest retained snapshot.
func (s *SLO) base(now time.Time, w time.Duration) sloSample {
	cutoff := now.Add(-w)
	s.mu.Lock()
	defer s.mu.Unlock()
	var best sloSample
	found := false
	for i := 0; i < s.n; i++ {
		smp := s.ring[(s.next-1-i+2*len(s.ring))%len(s.ring)] // newest first
		if !smp.t.After(cutoff) {
			best, found = smp, true
			break
		}
	}
	if found {
		return best
	}
	if !s.start.Before(cutoff) || s.n == 0 {
		return sloSample{t: s.start}
	}
	// Ring too short for w (should not happen: capacity covers
	// LongWindow) — best effort with the oldest retained snapshot.
	return s.ring[(s.next-s.n+len(s.ring))%len(s.ring)]
}

// Window computes the rolling view for horizon w.
func (s *SLO) Window(w time.Duration) SLOWindow {
	s.maybeSample()
	now := s.cfg.Clock()
	cur := s.cumulative(now)
	base := s.base(now, w)
	out := SLOWindow{
		Window:           w,
		Label:            windowLabel(w),
		Span:             now.Sub(base.t),
		Requests:         cur.total - base.total,
		Errors:           cur.errs - base.errs,
		Slow:             cur.slow - base.slow,
		Availability:     1,
		UnderTargetRatio: 1,
	}
	if out.Requests <= 0 {
		out.Requests = 0
		return out
	}
	n := float64(out.Requests)
	out.Availability = 1 - float64(out.Errors)/n
	out.UnderTargetRatio = float64(cur.under-base.under) / n
	out.SlowRatio = float64(out.Slow) / n
	if budget := 1 - s.cfg.AvailabilityTarget; budget > 0 {
		out.AvailabilityBurn = (1 - out.Availability) / budget
	}
	if budget := 1 - s.cfg.LatencyObjective; budget > 0 {
		out.LatencyBurn = (1 - out.UnderTargetRatio) / budget
	}
	return out
}

// Windows returns the short and long rolling views — the /v2/health
// payload's SLO section.
func (s *SLO) Windows() []SLOWindow {
	return []SLOWindow{s.Window(s.cfg.ShortWindow), s.Window(s.cfg.LongWindow)}
}

// windowLabel renders a duration as the compact Prometheus-style label
// ("5m", "1h") instead of Go's "5m0s".
func windowLabel(d time.Duration) string {
	s := d.String()
	for _, suffix := range []string{"m0s", "h0m"} {
		if len(s) > len(suffix) && s[len(s)-len(suffix):] == suffix {
			s = s[:len(s)-2]
		}
	}
	return s
}

// BurnRateProbe returns the health CheckFunc implementing the classic
// multiwindow alert: the SLO is breaching only when BOTH the short and
// long windows burn error budget above the threshold (short alone is a
// blip, long alone is history). degraded/failing are burn-rate
// thresholds (e.g. 2 and 10); traffic below MinRequests in the short
// window always reports ok.
func (s *SLO) BurnRateProbe(degraded, failing float64) CheckFunc {
	return func() Check {
		short := s.Window(s.cfg.ShortWindow)
		long := s.Window(s.cfg.LongWindow)
		if short.Requests < s.cfg.MinRequests {
			return Check{Status: HealthOK,
				Detail: fmt.Sprintf("%d requests in %s (below %d floor)",
					short.Requests, short.Label, s.cfg.MinRequests)}
		}
		burn := math.Max(
			math.Min(short.AvailabilityBurn, long.AvailabilityBurn),
			math.Min(short.LatencyBurn, long.LatencyBurn),
		)
		detail := fmt.Sprintf(
			"burn avail %.2f/%.2f lat %.2f/%.2f (%s/%s), availability %.4f, under-target %.4f",
			short.AvailabilityBurn, long.AvailabilityBurn,
			short.LatencyBurn, long.LatencyBurn,
			short.Label, long.Label, short.Availability, short.UnderTargetRatio)
		switch {
		case failing > 0 && burn >= failing:
			return Check{Status: HealthFailing, Detail: detail}
		case degraded > 0 && burn >= degraded:
			return Check{Status: HealthDegraded, Detail: detail}
		default:
			return Check{Status: HealthOK, Detail: detail}
		}
	}
}

// SlowRateProbe reports degraded when the short-window fraction of
// requests crossing the slow-trace threshold reaches maxRatio.
// Requires SetSlowFunc; without it the probe always reports ok.
func (s *SLO) SlowRateProbe(maxRatio float64) CheckFunc {
	return func() Check {
		short := s.Window(s.cfg.ShortWindow)
		if short.Requests < s.cfg.MinRequests || s.slowFn.Load() == nil {
			return Check{Status: HealthOK,
				Detail: fmt.Sprintf("%d requests in %s", short.Requests, short.Label)}
		}
		detail := fmt.Sprintf("%d/%d slow in %s (%.2f%%)",
			short.Slow, short.Requests, short.Label, 100*short.SlowRatio)
		if short.SlowRatio >= maxRatio {
			return Check{Status: HealthDegraded, Detail: detail}
		}
		return Check{Status: HealthOK, Detail: detail}
	}
}

// RegisterSLOMetrics exports the tracker as the p2drm_slo_* gauge
// families, one series per window label. All values are scrape-time
// Funcs over the rolling windows.
func RegisterSLOMetrics(reg *Registry, s *SLO) {
	windows := []time.Duration{s.cfg.ShortWindow, s.cfg.LongWindow}
	avail := reg.GaugeVec("p2drm_slo_availability_ratio",
		"Non-5xx request ratio over the rolling window (1 with no traffic).", "window")
	under := reg.GaugeVec("p2drm_slo_latency_under_target_ratio",
		"Fraction of requests at or under the latency target over the rolling window.", "window")
	aburn := reg.GaugeVec("p2drm_slo_availability_burn_rate",
		"Availability error-budget burn rate over the rolling window (1 = sustainable).", "window")
	lburn := reg.GaugeVec("p2drm_slo_latency_burn_rate",
		"Latency error-budget burn rate over the rolling window (1 = sustainable).", "window")
	reqs := reg.GaugeVec("p2drm_slo_window_requests",
		"Requests observed in the rolling window.", "window")
	for _, w := range windows {
		w := w
		label := windowLabel(w)
		avail.Func(func() float64 { return s.Window(w).Availability }, label)
		under.Func(func() float64 { return s.Window(w).UnderTargetRatio }, label)
		aburn.Func(func() float64 { return s.Window(w).AvailabilityBurn }, label)
		lburn.Func(func() float64 { return s.Window(w).LatencyBurn }, label)
		reqs.Func(func() float64 { return float64(s.Window(w).Requests) }, label)
	}
	reg.GaugeFunc("p2drm_slo_latency_target_seconds",
		"Per-request latency SLO target.",
		func() float64 { return s.LatencyTarget().Seconds() })
}
