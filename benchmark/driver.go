package main

// The load driver: one process, a fixed set of worker goroutines, two
// loop kinds. Both take the operation as a function of (worker, index)
// so the accounting is testable without a daemon.

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// execFunc runs op number index on a worker.
type execFunc func(worker, index int) error

// phaseResult is what one load phase measured.
type phaseResult struct {
	// Latency holds one entry per successful op, in ms. In the paced
	// phase it runs from the op's scheduled arrival to its completion.
	Latency []float64
	// Lateness is how long after its scheduled time each arrival was
	// handed to the queue, in ms (paced phase only).
	Lateness  []float64
	Attempted int
	Failed    int
	Wall      time.Duration
	// Errors tallies failures by message.
	Errors map[string]int
}

func (r *phaseResult) completed() int { return r.Attempted - r.Failed }

// collector gathers results from concurrent workers.
type collector struct {
	mu  sync.Mutex
	res phaseResult
}

func (c *collector) done(latencyMS float64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.Attempted++
	if err != nil {
		c.fail(err.Error())
		return
	}
	c.res.Latency = append(c.res.Latency, latencyMS)
}

// fail tallies one failure; the caller holds c.mu and has counted the
// attempt.
func (c *collector) fail(msg string) {
	c.res.Failed++
	if c.res.Errors == nil {
		c.res.Errors = make(map[string]int)
	}
	c.res.Errors[msg]++
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runPaced is the open loop: arrival i is due at start + i/rate whether
// or not earlier ops have finished. An arrival that finds every worker
// busy waits in a queue holding queueSeconds of arrivals; one that finds
// the queue full is failed. Latency is taken from the scheduled time, so
// a stall is charged to every op that had to wait behind it. Op indices
// start at base.
func runPaced(workers int, rate float64, d time.Duration, base int, exec execFunc) phaseResult {
	type arrival struct {
		index int
		due   time.Time
	}
	n := int(math.Round(rate * d.Seconds()))
	// The buffer is the waiting queue: one queueSeconds' worth of arrivals.
	queue := make(chan arrival, int(math.Ceil(rate*queueSeconds)))
	var c collector
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for a := range queue {
				err := exec(w, a.index)
				c.done(ms(time.Since(a.due)), err)
			}
		}(w)
	}
	start := time.Now()
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		time.Sleep(time.Until(due))
		late := ms(time.Since(due))
		select {
		case queue <- arrival{index: base + i, due: due}:
		default:
			c.mu.Lock()
			c.res.Attempted++
			c.fail("paced queue overflow")
			c.mu.Unlock()
		}
		c.res.Lateness = append(c.res.Lateness, late) // only this goroutine touches Lateness
	}
	close(queue)
	wg.Wait()
	c.res.Wall = time.Since(start)
	return c.res
}

// runClosed is the closed loop: every worker runs ops back to back, each
// taking the next unused index from base on, for as long as more (given
// how many ops have been taken so far) says so. Ops in flight when more
// turns false are completed and counted, and Wall runs until the last one
// finishes.
func runClosed(workers, base int, more func(taken int) bool, exec execFunc) phaseResult {
	var c collector
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if !more(i) {
					return
				}
				t0 := time.Now()
				err := exec(w, base+i)
				c.done(ms(time.Since(t0)), err)
			}
		}(w)
	}
	wg.Wait()
	c.res.Wall = time.Since(start)
	return c.res
}

// runSaturated is the saturated phase: the closed loop for d.
func runSaturated(workers int, d time.Duration, base int, exec execFunc) phaseResult {
	deadline := time.Now().Add(d)
	return runClosed(workers, base, func(int) bool { return time.Now().Before(deadline) }, exec)
}

// runCount runs exactly n ops closed-loop: the fixed count of warm-up ops.
func runCount(workers, n, base int, exec execFunc) phaseResult {
	return runClosed(workers, base, func(taken int) bool { return taken < n }, exec)
}
