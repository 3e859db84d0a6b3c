package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestTraceIsAFunctionOfSeed(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		kinds := make(map[opKind]int)
		differs := false
		for i := 0; i < 10*mixBlock; i++ {
			a, b := opAt(wl, 42, i), opAt(wl, 42, i)
			if a != b {
				t.Fatalf("%s: op %d differs between two generations under one seed: %+v vs %+v", wl.name, i, a, b)
			}
			if a.user == a.peer || a.user >= wl.users || a.peer >= wl.users {
				t.Fatalf("%s: op %d has user %d and peer %d of %d users", wl.name, i, a.user, a.peer, wl.users)
			}
			differs = differs || a != opAt(wl, 43, i)
			kinds[a.kind]++
		}
		if !differs {
			t.Errorf("%s: seeds 42 and 43 give the same trace", wl.name)
		}
		// The mix is stratified: ten blocks hold each kind in exactly its share.
		prev := 0
		for _, m := range wl.mix {
			if got, want := kinds[m.kind], 10*(m.upTo-prev); got != want {
				t.Errorf("%s: %d %s ops in %d, want exactly %d", wl.name, got, m.kind, 10*mixBlock, want)
			}
			prev = m.upTo
		}
	}
}

// A stalled op must show up in the latency of the ops queued behind it:
// latency runs from the scheduled arrival, not from dispatch.
func TestPacedChargesAStallToTheOpsBehindIt(t *testing.T) {
	const rate, stalled = 100.0, 5 // one arrival per 10 ms
	stall := 100 * time.Millisecond
	res := runPaced(1, rate, 300*time.Millisecond, 0, func(_, i int) error {
		if i == stalled {
			time.Sleep(stall)
		}
		return nil
	})
	if res.Attempted != 30 || res.Failed != 0 {
		t.Fatalf("attempted %d failed %d, want 30 and 0", res.Attempted, res.Failed)
	}
	// One worker completes ops in index order, so Latency[i] is op i's.
	if got := res.Latency[stalled-1]; got > 20 {
		t.Errorf("op before the stall took %.1f ms; the schedule is already late", got)
	}
	// Op 6 was due 10 ms into a 100 ms stall: it waited ~90 ms. Op 10 was
	// due 50 ms in and waited ~50 ms.
	for _, c := range []struct {
		op   int
		want float64
	}{{stalled + 1, 90}, {stalled + 5, 50}} {
		if got := res.Latency[c.op]; got < c.want-15 {
			t.Errorf("op %d behind the stall reports %.1f ms, want about %.0f ms: the wait was not charged", c.op, got, c.want)
		}
	}
	if len(res.Lateness) != 30 {
		t.Errorf("%d lateness samples, want 30", len(res.Lateness))
	}
}

func TestPacedFailsArrivalsBeyondTheQueue(t *testing.T) {
	release := make(chan struct{})
	var res phaseResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		// 100 arrivals/s for 1.5 s against one blocked worker: the queue
		// holds 100, the worker one, the other 49 overflow.
		res = runPaced(1, 100, 1500*time.Millisecond, 0, func(int, int) error {
			<-release
			return errors.New("op failed")
		})
	}()
	time.Sleep(1600 * time.Millisecond)
	close(release)
	<-done
	if res.Attempted != 150 {
		t.Fatalf("attempted %d, want 150", res.Attempted)
	}
	if got := res.Errors["paced queue overflow"]; got != 49 {
		t.Errorf("%d arrivals overflowed, want 49", got)
	}
	if res.Failed != 150 || len(res.Latency) != 0 {
		t.Errorf("failed %d with %d latency samples; a failed op must miss every latency figure", res.Failed, len(res.Latency))
	}
}

func TestClosedLoopCounts(t *testing.T) {
	res := runCount(3, 50, 100, func(_, i int) error {
		if i < 100 || i >= 150 {
			return errors.New("index outside the requested range")
		}
		return nil
	})
	if res.Attempted != 50 || res.Failed != 0 {
		t.Errorf("runCount: attempted %d failed %d, want 50 and 0", res.Attempted, res.Failed)
	}
	sat := runSaturated(2, 50*time.Millisecond, 0, func(int, int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if sat.completed() < 20 || sat.Wall < 50*time.Millisecond {
		t.Errorf("runSaturated: %d ops in %s", sat.completed(), sat.Wall)
	}
}

func TestSelfTimeAndUnattributedShare(t *testing.T) {
	// op [0,100] ── sdk.purchase [10,60] ── http.purchase [20,50]
	//            └─ smartcard.prove [60,90]
	spans := []span{
		{Name: "op.playback", Parent: -1, Start: 0, End: 100e6},
		{Name: "sdk.purchase", Parent: 0, Start: 10e6, End: 60e6},
		{Name: "http.purchase", Parent: 1, Start: 20e6, End: 50e6},
		{Name: "smartcard.prove", Parent: 0, Start: 60e6, End: 90e6},
	}
	if got, want := selfTimes(spans), []int64{20e6, 20e6, 30e6, 30e6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	var b budget
	b.add(spans)
	b.add(spans)
	if b.Ops != 2 || b.Requests != 2 || b.OpMS != 200 {
		t.Errorf("budget counts %d ops, %d requests, %.0f ms; want 2, 2, 200", b.Ops, b.Requests, b.OpMS)
	}
	if got := b.unattributedShare(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("unattributed share %.3f, want 0.200", got)
	}
	sum := 0.0
	for _, layer := range []string{"op", "sdk", "http", "smartcard"} {
		sum += b.perOp(layer)
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("layers sum to %.3f ms per op, want the op's 100 ms", sum)
	}
	rtt := make(map[string][]float64)
	httpDurations(spans, rtt)
	if !reflect.DeepEqual(rtt, map[string][]float64{"purchase": {30}}) {
		t.Errorf("round trips %v, want purchase: [30]", rtt)
	}
}

func TestRecorderNesting(t *testing.T) {
	var none *recorder
	none.end(none.begin("ignored")) // a nil recorder records nothing and does not panic

	r := newRecorder(1, time.Now())
	root := r.beginOp(7, "op.x")
	a := r.begin("sdk.a")
	r.begin("http.left-open") // closed by the end of its parent
	r.end(a)
	b := r.begin("cryptox.b")
	r.end(b)
	r.end(root)
	want := []struct {
		name   string
		parent int
	}{{"op.x", -1}, {"sdk.a", 0}, {"http.left-open", 1}, {"cryptox.b", 0}}
	if len(r.spans) != len(want) {
		t.Fatalf("%d spans, want %d", len(r.spans), len(want))
	}
	for i, w := range want {
		s := r.spans[i]
		if s.Name != w.name || s.Parent != w.parent || s.Op != 7 || s.Worker != 1 || s.End < s.Start {
			t.Errorf("span %d = %+v, want %s under %d", i, s, w.name, w.parent)
		}
	}
}

func TestRouteKey(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/bank/withdraw":       "withdraw",
		"/v2/bank/withdraw":       "withdraw",
		"/v1/purchase":            "purchase",
		"/v1/purchase/batch":      "purchase_batch",
		"/v2/revocation/contains": "revocation_contains",
		"/v1/content":             "content",
	} {
		if got := routeKey(path); got != want {
			t.Errorf("routeKey(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestMedianSpreadAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median of four = %v, want 3", got)
	}
	f := newFigure("ms", []float64{12, 10, 17})
	if f.Value != 12 || f.Min != 10 || f.Max != 17 || f.Unit != "ms" || len(f.Raw) != 3 {
		t.Errorf("figure %+v, want median 12 with spread 10..17 and the raw values kept", f)
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100 … 1, unsorted
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("empty input must give NaN, not a number that looks measured")
	}
}

func TestPhasesShareTheMeasuringTime(t *testing.T) {
	paced, saturated := phases(24, 3)
	if paced+saturated != 8*time.Second || paced <= saturated {
		t.Errorf("phases(24, 3) = %s + %s, want 8 s per repetition with the paced phase the longer", paced, saturated)
	}
}

// benchmarkJSON mirrors the contract's file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// BENCHMARK.json and the catalogue in spec.go must name the same
// workloads and metrics, and the result line must carry exactly them.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, spec.go %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
	}
	seen := make(map[string]bool)
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, spec.go %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in spec.go", kind, m.Name, m.Bound, d.bound)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s %s [%s]: bad or repeated name, or bad unit", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}

	// The result line carries exactly the catalogue's names, and a figure
	// the run did not produce reads as absent, not as missing.
	rp := &report{Figures: map[string]figure{"setup_s": newFigure("s", []float64{1.5})}}
	for traced, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
		res := rp.result(traced)
		if len(res.Metrics) != len(defs) {
			t.Errorf("traced=%v: result carries %d metrics, catalogue %d", traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("traced=%v: result lacks %s [%s]", traced, d.name, d.unit)
			}
		}
	}
	if got := rp.result(false).Metrics; got["setup_s"].Value != 1.5 || got["paced_p50_ms"].Value != absent {
		t.Errorf("result values %+v, want setup_s 1.5 and the rest absent", got)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", bj.RunSeconds, bj.Paths)
	}
}

// TestQuick drives the whole benchmark in smoke mode against real
// daemons: every workload untraced, then playback traced with the probes.
// A change that breaks the pinned program surface fails here.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons; skipped under -short")
	}
	out := t.TempDir()
	for _, args := range [][]string{
		{"-quick", "-out", out},
		{"-quick", "-out", out, "-workload", "playback", "-trace", "1"},
	} {
		if code := run(args, io.Discard); code != 0 {
			t.Fatalf("benchmark %v exited with code %d", args, code)
		}
	}
	want := map[string][]metricDef{"playback-trace1.json": perLayer}
	for _, wl := range workloads {
		want[wl.name+"-trace0.json"] = endToEnd
	}
	for file, defs := range want {
		data, err := os.ReadFile(filepath.Join(out, file))
		if err != nil {
			t.Fatal(err)
		}
		var rp report
		if err := json.Unmarshal(data, &rp); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if rp.Failed != 0 || rp.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", file, rp.Attempted, rp.Failed, rp.Errors)
		}
		for _, d := range defs {
			if f, ok := rp.Figures[d.name]; !ok || f.Value == absent {
				t.Errorf("%s: %s is missing or absent", file, d.name)
			}
		}
	}
	if spans, err := os.Stat(filepath.Join(out, "spans-playback.jsonl")); err != nil || spans.Size() == 0 {
		t.Errorf("the traced run left no spans: %v", err)
	}
}
