package main

// The traced run: one repetition whose paced phase runs twice — untraced,
// then with spans — followed by the saturated phase and a sweep that makes
// every SDK call at least once. With the in-process probes, which run
// once the daemons are gone, it yields every per-layer metric; end-to-end
// metrics always come from untraced runs.

import (
	"fmt"
	"path/filepath"
	"time"

	"p2drm/internal/obs"
)

// tracedResult is what the traced run adds to a repetition's figures.
type tracedResult struct {
	rep    repResult
	budget budget
	// paced is the length of each of the two paced phases.
	paced, saturated time.Duration
}

// sweepVisible is how many playbacks of the sweep time revocation
// visibility on the replica (one in quick mode).
const sweepVisible = 6

// scrapes is one /v2/metrics scrape of both roles.
type scrapes struct{ primary, replica *obs.Metrics }

func (r *rep) scrapeBoth() (s scrapes, err error) {
	if s.primary, err = scrape(r.flows[0].primary); err != nil {
		return s, err
	}
	s.replica, err = scrape(r.flows[0].replica)
	return s, err
}

// since returns both roles' deltas from an earlier scrape.
func (s scrapes) since(from scrapes, warn func(string, ...any)) (primary, replica delta) {
	return delta{from: from.primary, to: s.primary, warn: warn},
		delta{from: from.replica, to: s.replica, warn: warn}
}

func runTraced(e *env, wl *workload, seconds float64, outDir string) (*tracedResult, error) {
	r := &rep{e: e, wl: wl}
	defer r.stop()
	if err := r.setUp(0); err != nil {
		return nil, err
	}
	x := r.res.Values
	// Three load phases share the measuring time: 3/8 untraced paced,
	// 3/8 traced paced, 2/8 saturated.
	pacedDur := time.Duration(seconds * 3 / 8 * float64(time.Second))
	satDur := time.Duration(seconds*float64(time.Second)) - 2*pacedDur

	epoch := time.Now()
	recs := make([]*recorder, e.workers)
	for w := range recs {
		recs[w] = newRecorder(w, epoch)
	}
	tracedFlows := r.newFlows(recs)
	before, err := r.scrapeBoth()
	if err != nil {
		return nil, err
	}
	primaryCPU0, replicaCPU0, selfCPU0 := r.procCPU(r.topo.primary), r.procCPU(r.topo.replica), selfCPUMS()

	plain := r.paced(r.flows, pacedDur)
	r.recordPaced(plain, r.procCPU(r.topo.primary)-primaryCPU0)
	traced := r.paced(tracedFlows, pacedDur)
	sat := r.saturated(satDur)

	replicaCPU1, selfCPU1 := r.procCPU(r.topo.replica), selfCPUMS()
	x["replica.catchup_ms"] = r.drain()
	afterLoad, err := r.scrapeBoth()
	if err != nil {
		return nil, err
	}
	if ops := float64(plain.completed() + traced.completed() + sat.completed()); ops > 0 {
		x["p2drmd.replica_cpu_ms_per_op"] = (replicaCPU1 - replicaCPU0) / ops
		x["loadgen.cpu_ms_per_op"] = (selfCPU1 - selfCPU0) / ops
		primary, replica := afterLoad.since(before, e.warn)
		loadMetrics(primary, replica, ops, x)
	}
	for _, d := range []*daemon{r.topo.primary, r.topo.replica} {
		mb, ok := rssHighWaterMB(d.cmd.Process.Pid)
		if !ok {
			e.warn("no VmHWM in /proc for the %s daemon", d.role)
			mb = absent
		}
		x["p2drmd."+d.role+"_rss_mb"] = mb
	}

	// The budget covers the traced paced phase only: the sweep below
	// appends to the same recorders, but only its round trips are used.
	res := &tracedResult{paced: pacedDur, saturated: satDur}
	for _, rec := range recs {
		res.budget.add(rec.spans)
	}
	x["cryptox.client_ms_per_op"] = res.budget.perOp("cryptox")
	x["smartcard.client_ms_per_op"] = res.budget.perOp("smartcard")
	x["loadgen.unattributed_share"] = res.budget.unattributedShare()
	x["loadgen.trace_overhead_share"] = percentile(traced.Latency, 50)/x["paced_p50_ms"] - 1
	if res.budget.Ops > 0 {
		x["httpapi.requests_per_op"] = float64(res.budget.Requests) / float64(res.budget.Ops)
	}

	r.sweep(tracedFlows[0])
	visible := sweepVisible
	if e.quick {
		visible = 1
	}
	x["revocation.visible_ms"] = median(r.finalChecks(tracedFlows[0], visible))
	x["revocation.filter_bytes"] = float64(r.world.filterBytes.Load())
	afterSweep, err := r.scrapeBoth()
	if err != nil {
		return nil, err
	}
	primary, replica := afterSweep.since(before, e.warn)
	runMetrics(primary, replica, x)

	rtt := make(map[string][]float64)
	for _, rec := range recs {
		httpDurations(rec.spans, rtt)
	}
	for _, c := range rttCalls {
		x["httpapi.rtt_"+c.call+"_ms"] = absent
		if d := rtt[c.key]; len(d) > 0 {
			x["httpapi.rtt_"+c.call+"_ms"] = percentile(d, 50)
		} else {
			e.warn("no traced %s request", c.call)
		}
	}
	x["httpapi.wire_overhead_ms"] = absent
	server := primary.meanMS("p2drm_http_request_duration_seconds", route("challenge"))
	if client := x["httpapi.rtt_challenge_ms"]; client != absent && server != absent {
		x["httpapi.wire_overhead_ms"] = client - server
	}
	x["p2drmd.build_s"] = e.buildS
	if err := writeSpans(filepath.Join(outDir, "spans-"+wl.name+".jsonl"), recs); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.rep = r.res
	return res, nil
}

// sweep makes every SDK call the workloads use at least once on the
// quiet topology, so each round-trip and server-route figure has a
// sample on every workload. The playback calls are made by finalChecks.
func (r *rep) sweep(f *flow) {
	root := f.rec.beginOp(-1000, "check.sweep") // negative op ids mark spans outside the trace
	defer f.rec.end(root)
	r.res.check("sweep catalog", f.catalog())
	r.res.check("sweep content", f.content())
	r.res.check("sweep stats", f.stats())
	r.res.check("sweep revocation check", f.revCheck(opSpec{kind: opRevCheck, serial: 1}))
	r.res.check("sweep revocation filter", f.filter())
	r.res.check("sweep batch", f.batch(r.world.users[2], r.world.users[3]))
}
