package main

// Reports: per-repetition raw values folded into medians with their
// spread, printed by name with unit, loop kind, rate or client count and
// sample count.

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// fold turns the repetitions' raw values into figures and totals.
func (rp *report) fold(units map[string]string) {
	raw := make(map[string][]float64)
	for i := range rp.Reps {
		r := &rp.Reps[i]
		for name, v := range r.Values {
			raw[name] = append(raw[name], finite(v))
		}
		rp.Attempted += r.Attempted
		rp.Failed += r.Failed
		for msg, n := range r.Errors {
			if rp.Errors == nil {
				rp.Errors = make(map[string]int)
			}
			rp.Errors[msg] += n
		}
	}
	rp.Figures = make(map[string]figure, len(raw))
	for name, vals := range raw {
		rp.Figures[name] = newFigure(units[name], vals)
	}
}

// units maps the names of the given catalogues to their units.
func units(catalogues ...[]metricDef) map[string]string {
	u := make(map[string]string)
	for _, defs := range catalogues {
		for _, d := range defs {
			u[d.name] = d.unit
		}
	}
	return u
}

// summarise closes an untraced run's report.
func (rp *report) summarise(wl *workload, e *env, paced, saturated time.Duration) {
	rp.fold(units(endToEnd, perLayer))
	samples, completed := 0, 0
	for _, r := range rp.Reps {
		samples += r.PacedSamples
		completed += r.SaturatedCount
	}
	n := len(rp.Reps)
	open := fmt.Sprintf("open loop, %g ops/s for %s, %d workers, median of %d repetitions, %d samples each",
		wl.rate, paced, e.workers, n, samples/n)
	closed := fmt.Sprintf("closed loop, %d clients for %s, median of %d repetitions, %d ops each",
		e.workers, saturated, n, completed/n)
	rp.Loops = map[string]string{
		"setup_s":                     fmt.Sprintf("first daemon spawn to end of %d warm-up ops, median of %d repetitions", wl.warmup, n),
		"paced_p50_ms":                open,
		"paced_p90_ms":                open,
		"primary_cpu_ms_per_op":       open,
		"loadgen.saturated_ops_per_s": closed,
	}
}

// addTraced closes a traced run's report.
func (rp *report) addTraced(wl *workload, tr *tracedResult) {
	rp.Reps = []repResult{tr.rep}
	rp.fold(units(endToEnd, perLayer))
	rp.Budget = &tr.budget
	rp.Loops = map[string]string{
		"traced": fmt.Sprintf("open loop, %g ops/s: %s untraced then %s traced (%d ops); closed loop %s; one repetition",
			wl.rate, tr.paced, tr.paced, tr.budget.Ops, tr.saturated),
	}
}

// result is the contract's machine-readable line: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func (rp *report) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct: rp.Failed == 0, Attempted: rp.Attempted, Failed: rp.Failed,
		Metrics: make(map[string]resultValue, len(defs)),
	}
	for _, d := range defs {
		v := absent
		if f, ok := rp.Figures[d.name]; ok {
			v = f.Value
		}
		res.Metrics[d.name] = resultValue{Value: v, Unit: d.unit}
	}
	return res
}

// print writes the human-readable report.
func (rp *report) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s — %s\n", rp.Workload, rp.Why)
	fmt.Fprintf(w, "   attempted %d, failed %d\n", rp.Attempted, rp.Failed)
	for msg, n := range rp.Errors {
		fmt.Fprintf(w, "   FAILED ×%d: %s\n", n, msg)
	}
	line := func(name string) {
		f, ok := rp.Figures[name]
		if !ok {
			return
		}
		fmt.Fprintf(w, "   %-46s %12.4f %-6s", name, f.Value, f.Unit)
		if len(f.Raw) > 1 {
			fmt.Fprintf(w, " min %.4f max %.4f raw %.4f", f.Min, f.Max, f.Raw)
		}
		if loop, ok := rp.Loops[name]; ok {
			fmt.Fprintf(w, "  [%s]", loop)
		}
		fmt.Fprintln(w)
	}
	if rp.Budget == nil {
		for _, d := range endToEnd {
			line(d.name)
		}
	} else {
		fmt.Fprintf(w, "   %s\n", rp.Loops["traced"])
	}
	e2e := units(endToEnd)
	var extra []string
	for name := range rp.Figures {
		if _, ok := e2e[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		line(name)
	}
	if b := rp.Budget; b != nil && b.Ops > 0 {
		// The traced op, split by where its time went: a layer's share is
		// its spans' self time; "op" is what no span covers.
		fmt.Fprintf(w, "   budget over %d traced ops, mean %.3f ms per op (execution, no queue wait):\n", b.Ops, b.OpMS/float64(b.Ops))
		for _, row := range []struct{ layer, what string }{
			{"smartcard", "card: pseudonym derivation and proofs"},
			{"cryptox", "client crypto: blind, unblind, verify"},
			{"http", fmt.Sprintf("round trips (%.1f per op)", float64(b.Requests)/float64(b.Ops))},
			{"sdk", "httpapi.Client outside the round trip: encode, coin blinding"},
			{"op", "unattributed"},
		} {
			fmt.Fprintf(w, "     %-10s %8.3f ms  %5.1f%%  %s\n", row.layer, b.perOp(row.layer),
				100*b.SelfMS[row.layer]/b.OpMS, row.what)
		}
		// For the write routes the round trip should be server time plus
		// the wire overhead, and server time the provider's direct call; a
		// gap between the last two is queueing inside the daemon.
		fmt.Fprintf(w, "   write routes, ms: %-10s %8s %8s %8s %8s\n", "", "rtt p50", "server", "wire", "probe")
		for _, route := range []string{"register", "purchase", "exchange", "redeem"} {
			rtt, server := rp.Figures["httpapi.rtt_"+route+"_ms"].Value, rp.Figures["httpapi.server_"+route+"_ms"].Value
			fmt.Fprintf(w, "                     %-10s %8.3f %8.3f %8.3f %8.3f\n", route, rtt, server, rtt-server,
				rp.Figures["provider."+route+"_us"].Value/1e3)
		}
	}
}
