package main

// One repetition: fresh topology → set-up → paced phase → saturated
// phase → drain → correctness checks → teardown. The traced run is one
// repetition with a second, traced paced phase, a sweep over every SDK
// call and the in-process probes.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"p2drm/internal/httpapi"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/revocation"
)

// env is what every repetition of a run shares.
type env struct {
	root    string // module root the daemon is built from
	bin     string // built p2drmd
	runDir  string // state dirs and daemon logs of this run
	workers int
	seed    int64
	quick   bool
	buildS  float64
	warned  map[string]bool
}

// warn prints a warning once.
func (e *env) warn(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !e.warned[msg] {
		e.warned[msg] = true
		fmt.Fprintln(os.Stderr, "warning:", msg)
	}
}

// repResult is what one repetition measured. Values holds every figure,
// end-to-end and per-layer, by metric name.
type repResult struct {
	Values         map[string]float64 `json:"values"`
	PacedSamples   int                `json:"paced_samples"`
	SaturatedCount int                `json:"saturated_completed"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Errors         map[string]int     `json:"errors,omitempty"`
}

// tally folds a phase's or a check's outcome into the repetition.
func (r *repResult) tally(attempted, failed int, errs map[string]int) {
	r.Attempted += attempted
	r.Failed += failed
	for msg, n := range errs {
		if r.Errors == nil {
			r.Errors = make(map[string]int)
		}
		r.Errors[msg] += n
	}
}

// check counts one correctness check.
func (r *repResult) check(what string, err error) {
	if err != nil {
		r.tally(1, 1, map[string]int{what + ": " + err.Error(): 1})
		return
	}
	r.tally(1, 0, nil)
}

// calibrate times a fixed SHA-256 loop, so a noisy-neighbour episode on
// the box shows up next to the repetition it disturbed.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	start := time.Now()
	for i := 0; i < 32; i++ {
		sum := sha256.Sum256(buf)
		copy(buf, sum[:])
	}
	return ms(time.Since(start))
}

// preloadRevoked writes n revoked serials into the provider store at dir
// with the public kvstore and revocation API, before the primary boots.
func preloadRevoked(dir string, n int, seed int64) error {
	st, err := kvstore.Open(dir)
	if err != nil {
		return err
	}
	list, err := revocation.Open(st, uint64(n))
	if err != nil {
		st.Close()
		return err
	}
	const chunk = 1000
	serials := make([]license.Serial, 0, chunk)
	for j := 0; j < n; j++ {
		serials = append(serials, serialFor(seed, "revoked", j))
		if len(serials) == chunk || j == n-1 {
			if err := list.AddBatch(serials); err != nil {
				st.Close()
				return err
			}
			serials = serials[:0]
		}
	}
	return st.Close()
}

// preload gives the provider store at dir the workload's revoked serials.
// They are generated once per run and copied into each repetition's
// fresh state directory; neither step is part of setup_s.
func (e *env) preload(wl *workload, dir string) error {
	master := filepath.Join(e.runDir, "preload-"+wl.name)
	if _, err := os.Stat(master); err != nil {
		if err := preloadRevoked(master, wl.preload, e.seed); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	segments, err := os.ReadDir(master)
	if err != nil {
		return err
	}
	for _, seg := range segments {
		data, err := os.ReadFile(filepath.Join(master, seg.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, seg.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// selfCPUMS is this process's user+system CPU time in ms.
func selfCPUMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rep is one repetition in flight.
type rep struct {
	e     *env
	wl    *workload
	topo  *topology
	world *world
	flows []*flow // untraced, one per worker
	next  int     // first unused trace index
	res   repResult
}

// exec runs trace op i on worker w's flow.
func (r *rep) exec(flows []*flow) execFunc {
	return func(w, i int) error { return flows[w].do(i, opAt(r.wl, r.e.seed, i)) }
}

// newFlows builds one flow per worker; recs, when not nil, gives each a
// recorder.
func (r *rep) newFlows(recs []*recorder) []*flow {
	flows := make([]*flow, r.e.workers)
	for w := range flows {
		var rec *recorder
		if recs != nil {
			rec = recs[w]
		}
		flows[w] = &flow{
			w:       r.world,
			primary: r.topo.client(r.topo.primary.url, rec),
			replica: r.topo.client(r.topo.replica.url, rec),
			rec:     rec,
		}
	}
	return flows
}

// setUp boots the topology, funds the users and runs the warm-up ops.
// It returns with setup_s covering first daemon spawn → end of
// warm-up; preloading state is done before the clock starts.
func (r *rep) setUp(n int) error {
	dir := filepath.Join(r.e.runDir, fmt.Sprintf("%s-%d", r.wl.name, n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if r.wl.preload > 0 {
		if err := r.e.preload(r.wl, filepath.Join(dir, "primary", "provider")); err != nil {
			return fmt.Errorf("preload revoked serials: %w", err)
		}
	}
	r.res.Values = map[string]float64{"box.calib_ms": calibrate()}
	start := time.Now()
	var err error
	if r.topo, err = startTopology(r.e.bin, dir); err != nil {
		return err
	}
	if r.world, err = newWorld(r.wl, r.e.seed, r.topo.client(r.topo.primary.url, nil)); err != nil {
		return err
	}
	r.flows = r.newFlows(nil)
	warm := runCount(r.e.workers, r.wl.warmup, 0, r.exec(r.flows))
	r.next = r.wl.warmup
	r.res.tally(warm.Attempted, warm.Failed, warm.Errors)
	r.res.Values["setup_s"] = time.Since(start).Seconds()
	r.res.Values["p2drmd.boot_ms"] = r.topo.bootMS
	r.res.Values["replica.bootstrap_ms"] = r.topo.bootstrapMS
	return nil
}

// stop tears the topology down; it is safe to call twice.
func (r *rep) stop() {
	if r.topo != nil {
		r.topo.stop()
		r.topo = nil
	}
}

// paced runs the open-loop phase on flows and returns its result.
func (r *rep) paced(flows []*flow, d time.Duration) phaseResult {
	p := runPaced(r.e.workers, r.wl.rate, d, r.next, r.exec(flows))
	r.next += p.Attempted
	r.res.tally(p.Attempted, p.Failed, p.Errors)
	return p
}

// saturated runs the closed-loop phase; it is the last consumer of the
// trace in a repetition.
func (r *rep) saturated(d time.Duration) phaseResult {
	s := runSaturated(r.e.workers, d, r.next, r.exec(r.flows))
	r.res.tally(s.Attempted, s.Failed, s.Errors)
	r.res.SaturatedCount = s.completed()
	r.res.Values["loadgen.saturated_ops_per_s"] = float64(s.completed()) / s.Wall.Seconds()
	return s
}

// recordPaced stores the paced phase's end-to-end figures; primaryCPU is
// the primary's on-CPU time over the phase in ms.
func (r *rep) recordPaced(p phaseResult, primaryCPU float64) {
	if p.completed() > 0 {
		r.res.Values["primary_cpu_ms_per_op"] = primaryCPU / float64(p.completed())
	}
	r.res.PacedSamples = len(p.Latency)
	r.res.Values["paced_p50_ms"] = percentile(p.Latency, 50)
	r.res.Values["paced_p90_ms"] = percentile(p.Latency, 90)
	r.res.Values["loadgen.paced_p99_ms"] = percentile(p.Latency, 99)
	r.res.Values["loadgen.lateness_p99_ms"] = percentile(p.Lateness, 99)
}

// procCPU reads a daemon's on-CPU time, warning when /proc has none.
func (r *rep) procCPU(d *daemon) float64 {
	v, ok := cpuMS(d.cmd.Process.Pid)
	if !ok {
		r.e.warn("no on-CPU time in /proc for the %s daemon", d.role)
	}
	return v
}

// drain waits until the replica has applied everything the load wrote
// and returns how long that took in ms.
func (r *rep) drain() float64 {
	loadEnd := time.Now()
	rc := r.flows[0].replica
	err := r.topo.replica.waitFor("catch-up after load", func() bool { return caughtUp(rc, loadEnd) })
	r.res.check("replica caught up with lag 0 after the load", err)
	return ms(time.Since(loadEnd))
}

// finalChecks runs the in-run correctness checks on flow f: a playback
// whose retired serial must read revoked on the primary, a second redeem
// and a re-spent coin that must both be rejected, and health ok on both
// roles. With visible > 0 it runs that many playbacks and times how long
// each retired serial takes to read revoked on the replica.
func (r *rep) finalChecks(f *flow, visible int) (visibleMS []float64) {
	buyer, peer := r.world.users[0], r.world.users[1]
	for k := 0; k < max(visible, 1); k++ {
		root := f.rec.beginOp(-1-k, "check.playback")
		ex, err := f.exchange(buyer)
		r.res.check("purchase and exchange", err)
		if err != nil {
			f.rec.end(root)
			continue
		}
		found, err := f.primary.RevocationContains(ex.lic.Serial)
		if err == nil && !found {
			err = errors.New("contains=false")
		}
		r.res.check("exchanged serial reads revoked on the primary", err)
		if visible > 0 {
			err := r.topo.replica.waitFor("retired serial on the replica", func() bool {
				found, err := f.replica.RevocationContains(ex.lic.Serial)
				return err == nil && found
			})
			r.res.check("exchanged serial reads revoked on the replica", err)
			visibleMS = append(visibleMS, ms(time.Since(ex.at)))
		}
		r.res.check("redeem", f.redeem(peer, ex.anon))
		if k == 0 {
			r.res.check("second redeem of one anonymous licence is rejected",
				rejectedWith(f.redeem(peer, ex.anon), provider.ErrAlreadyRedeemed))
			coins, err := f.withdraw(buyer, r.world.price)
			if err == nil {
				_, err = f.purchaseWith(buyer, coins)
			}
			r.res.check("purchase with fresh coins", err)
			if err == nil {
				_, err = f.purchaseWith(buyer, coins)
				r.res.check("purchase with spent coins is rejected", rejectedWith(err, payment.ErrDoubleSpend))
			}
		}
		f.rec.end(root)
	}
	for _, c := range []*httpapi.Client{f.primary, f.replica} {
		var err error
		if !healthy(c) {
			err = errors.New("/v2/health is not 200 ok")
		}
		r.res.check("health of "+c.BaseURL, err)
	}
	r.res.check("daemons still running", r.topo.alive())
	return visibleMS
}

// rejectedWith turns "the daemon refused the call for the reason want"
// into success. The reason crosses the wire as text.
func rejectedWith(err, want error) error {
	switch {
	case err == nil:
		return errors.New("accepted")
	case !strings.Contains(err.Error(), want.Error()):
		return fmt.Errorf("refused for another reason: %w", err)
	}
	return nil
}

// runRep is one untraced repetition.
func runRep(e *env, wl *workload, n int, paced, saturated time.Duration) (repResult, error) {
	r := &rep{e: e, wl: wl}
	defer r.stop()
	if err := r.setUp(n); err != nil {
		return r.res, err
	}
	cpu0 := r.procCPU(r.topo.primary)
	p := r.paced(r.flows, paced)
	r.recordPaced(p, r.procCPU(r.topo.primary)-cpu0)
	r.saturated(saturated)
	r.drain()
	r.finalChecks(r.flows[0], 0)
	return r.res, nil
}
