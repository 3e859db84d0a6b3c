package obs

// Tests for the rolling-window SLO tracker under an injected clock:
// window arithmetic over the snapshot ring, burn-rate math, the
// multiwindow probe semantics (both windows must burn), the slow-rate
// probe, and the exported p2drm_slo_* families.

import (
	"bytes"
	"testing"
	"time"
)

// sloClock is a manually advanced clock for deterministic windows.
type sloClock struct{ now time.Time }

func (c *sloClock) Now() time.Time            { return c.now }
func (c *sloClock) Advance(d time.Duration)   { c.now = c.now.Add(d) }
func testSLO(c *sloClock, cfg SLOConfig) *SLO { cfg.Clock = c.Now; return NewSLO(cfg) }

func TestSLOWindows(t *testing.T) {
	clk := &sloClock{now: time.Unix(1_700_000_000, 0)}
	s := testSLO(clk, SLOConfig{
		SampleInterval: time.Second,
		ShortWindow:    10 * time.Second,
		LongWindow:     60 * time.Second,
		LatencyTarget:  100 * time.Millisecond,
	})

	// No traffic: clean slate, burns at zero.
	w := s.Window(10 * time.Second)
	if w.Requests != 0 || w.Availability != 1 || w.UnderTargetRatio != 1 ||
		w.AvailabilityBurn != 0 || w.LatencyBurn != 0 {
		t.Fatalf("idle window: %+v", w)
	}

	// tick closes one simulated second: advance the clock and force the
	// ring snapshot at the exact boundary (otherwise the lazy sampler
	// takes it one request into the next second, shifting window counts
	// by one).
	tick := func() {
		clk.Advance(time.Second)
		s.Window(time.Second)
	}

	// 20 seconds of traffic: 10 req/s, each second one 500 and one slow
	// request among the ten.
	for i := 0; i < 20; i++ {
		for j := 0; j < 10; j++ {
			status, lat := 200, 10*time.Millisecond
			if j == 0 {
				status = 500
			}
			if j == 1 {
				lat = 400 * time.Millisecond
			}
			s.Observe(status, lat)
		}
		tick()
	}

	w = s.Window(10 * time.Second)
	if w.Requests != 100 || w.Errors != 10 {
		t.Fatalf("short window counts: %+v", w)
	}
	if w.Availability != 0.9 {
		t.Errorf("availability = %v, want 0.9", w.Availability)
	}
	if w.UnderTargetRatio != 0.9 {
		t.Errorf("under-target = %v, want 0.9", w.UnderTargetRatio)
	}
	// Defaults: availability target 0.999 → budget 0.001, error ratio
	// 0.1 → burn 100; latency objective 0.99 → budget 0.01 → burn 10.
	if w.AvailabilityBurn < 99 || w.AvailabilityBurn > 101 {
		t.Errorf("availability burn = %v, want ~100", w.AvailabilityBurn)
	}
	if w.LatencyBurn < 9.9 || w.LatencyBurn > 10.1 {
		t.Errorf("latency burn = %v, want ~10", w.LatencyBurn)
	}
	if w.Label != "10s" {
		t.Errorf("label = %q", w.Label)
	}

	// The long window covers all 200 requests (span clipped to process
	// age, not the full 60s horizon).
	w = s.Window(60 * time.Second)
	if w.Requests != 200 || w.Errors != 20 {
		t.Fatalf("long window counts: %+v", w)
	}
	if w.Span > 21*time.Second {
		t.Errorf("span %v exceeds process age", w.Span)
	}

	// 15 quiet seconds: the errors age out of the short window but stay
	// in the long one. (maybeSample in Window keeps the ring moving.)
	for i := 0; i < 15; i++ {
		for j := 0; j < 10; j++ {
			s.Observe(200, 10*time.Millisecond)
		}
		tick()
	}
	short, long := s.Window(10*time.Second), s.Window(60*time.Second)
	if short.Errors != 0 || short.Availability != 1 || short.AvailabilityBurn != 0 {
		t.Errorf("errors did not age out of short window: %+v", short)
	}
	if long.Errors != 20 {
		t.Errorf("long window lost history: %+v", long)
	}
}

func TestSLOWindowLabels(t *testing.T) {
	for d, want := range map[time.Duration]string{
		5 * time.Minute:  "5m",
		time.Hour:        "1h",
		90 * time.Second: "1m30s",
		10 * time.Second: "10s",
		6 * time.Hour:    "6h",
		65 * time.Minute: "1h5m",
	} {
		if got := windowLabel(d); got != want {
			t.Errorf("windowLabel(%v) = %q, want %q", d, got, want)
		}
	}
}

// TestSLOBurnRateProbe: the probe needs BOTH windows burning — a short
// spike with a clean long window stays ok, sustained burn degrades
// then fails, and sub-floor traffic never alerts.
func TestSLOBurnRateProbe(t *testing.T) {
	clk := &sloClock{now: time.Unix(1_700_000_000, 0)}
	// A 10% error budget keeps the arithmetic inspectable: a full outage
	// burns at exactly 10x (the failing threshold), and a 10s outage
	// inside a 120s window burns the long window at only ~0.83x.
	s := testSLO(clk, SLOConfig{
		SampleInterval:     time.Second,
		ShortWindow:        10 * time.Second,
		LongWindow:         120 * time.Second,
		MinRequests:        30,
		AvailabilityTarget: 0.9,
	})
	probe := s.BurnRateProbe(2, 10)

	// Below the traffic floor: ok no matter what.
	for i := 0; i < 10; i++ {
		s.Observe(500, time.Millisecond)
	}
	if c := probe(); c.Status != HealthOK {
		t.Fatalf("sub-floor traffic alerted: %+v", c)
	}

	// A long clean history, then a 10s total outage: the short window
	// burns hard but the long window is still inside budget — no alert
	// yet (that's the multiwindow point: a blip is not a breach).
	for i := 0; i < 110; i++ {
		for j := 0; j < 10; j++ {
			s.Observe(200, time.Millisecond)
		}
		clk.Advance(time.Second)
	}
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			s.Observe(500, time.Millisecond)
		}
		clk.Advance(time.Second)
	}
	short, long := s.Window(10*time.Second), s.Window(120*time.Second)
	if short.AvailabilityBurn < 10 {
		t.Fatalf("short window not burning: %+v", short)
	}
	if long.AvailabilityBurn >= 2 {
		t.Fatalf("long window burning after a blip: %+v", long)
	}
	if c := probe(); c.Status != HealthOK {
		t.Fatalf("short blip alone alerted: %+v", c)
	}

	// Sustain the outage until the long window burns too → failing.
	for i := 0; i < 110; i++ {
		for j := 0; j < 10; j++ {
			s.Observe(500, time.Millisecond)
		}
		clk.Advance(time.Second)
	}
	if c := probe(); c.Status != HealthFailing {
		t.Fatalf("sustained outage not failing: %+v", c)
	}

	// Recovery: a clean short window drops the alert immediately even
	// though the long window still remembers the outage.
	for i := 0; i < 15; i++ {
		for j := 0; j < 10; j++ {
			s.Observe(200, time.Millisecond)
		}
		clk.Advance(time.Second)
	}
	if c := probe(); c.Status != HealthOK {
		t.Fatalf("clean short window did not clear the alert: %+v", c)
	}
}

func TestSLOSlowRateProbe(t *testing.T) {
	clk := &sloClock{now: time.Unix(1_700_000_000, 0)}
	s := testSLO(clk, SLOConfig{
		SampleInterval: time.Second,
		ShortWindow:    10 * time.Second,
		LongWindow:     60 * time.Second,
		MinRequests:    10,
	})
	probe := s.SlowRateProbe(0.05)

	// Without a slow source the probe is inert.
	for i := 0; i < 20; i++ {
		s.Observe(200, time.Millisecond)
	}
	if c := probe(); c.Status != HealthOK {
		t.Fatalf("no slow source but not ok: %+v", c)
	}

	var slowTotal int64
	s.SetSlowFunc(func() int64 { return slowTotal })
	// 10 req/s with 1/10 slow = 10% > 5% threshold.
	for i := 0; i < 12; i++ {
		for j := 0; j < 10; j++ {
			s.Observe(200, time.Millisecond)
		}
		slowTotal++
		clk.Advance(time.Second)
	}
	if c := probe(); c.Status != HealthDegraded {
		t.Fatalf("10%% slow rate not degraded: %+v", c)
	}
	// Slow requests stop: the rate decays out of the short window.
	for i := 0; i < 15; i++ {
		for j := 0; j < 10; j++ {
			s.Observe(200, time.Millisecond)
		}
		clk.Advance(time.Second)
	}
	if c := probe(); c.Status != HealthOK {
		t.Fatalf("slow rate did not decay: %+v", c)
	}
}

// TestRegisterSLOMetrics: the exported families parse, carry one
// series per window label, and reflect the tracker's state.
func TestRegisterSLOMetrics(t *testing.T) {
	clk := &sloClock{now: time.Unix(1_700_000_000, 0)}
	s := testSLO(clk, SLOConfig{
		SampleInterval: time.Second,
		ShortWindow:    5 * time.Minute,
		LongWindow:     time.Hour,
	})
	reg := NewRegistry()
	RegisterSLOMetrics(reg, s)

	for i := 0; i < 9; i++ {
		s.Observe(200, time.Millisecond)
	}
	s.Observe(500, time.Second)

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ParseMetrics(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"p2drm_slo_availability_ratio",
		"p2drm_slo_latency_under_target_ratio",
		"p2drm_slo_availability_burn_rate",
		"p2drm_slo_latency_burn_rate",
		"p2drm_slo_window_requests",
		"p2drm_slo_latency_target_seconds",
	} {
		if _, ok := m.Types[fam]; !ok {
			t.Errorf("family %q missing", fam)
		}
	}
	for _, win := range []string{"5m", "1h"} {
		if v, ok := m.Value("p2drm_slo_window_requests", map[string]string{"window": win}); !ok || v != 10 {
			t.Errorf("window_requests{window=%q} = %v ok=%v, want 10", win, v, ok)
		}
		if v, ok := m.Value("p2drm_slo_availability_ratio", map[string]string{"window": win}); !ok || v != 0.9 {
			t.Errorf("availability{window=%q} = %v ok=%v, want 0.9", win, v, ok)
		}
	}
	if v, ok := m.Value("p2drm_slo_latency_target_seconds", nil); !ok || v != 0.25 {
		t.Errorf("latency target = %v ok=%v, want 0.25", v, ok)
	}
}
