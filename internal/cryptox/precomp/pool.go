package precomp

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a background-filled pool of precomputed values (the
// async-rebuild pattern from the revocation filter): filler goroutines
// keep a buffered channel topped up, the request path takes values
// non-blockingly and falls back to inline generation when drained.
//
// Refilling runs with low-water hysteresis: after the initial fill to
// capacity the fillers park, and a Draw only wakes them once depth
// drops below half the capacity, after which they top the pool back up.
// Bursts up to half the capacity are therefore absorbed without the
// fillers competing with request threads for CPU; sustained load sees
// the fillers run continuously.
//
// Delivery through the channel guarantees every value is handed out at
// most once — the single-use invariant nonces depend on.
type Pool[T any] struct {
	ch   chan T
	gen  func() (T, error)
	low  int           // refill trigger depth
	kick chan struct{} // capacity 1: Draw -> filler wake-up
	done chan struct{}
	wg   sync.WaitGroup

	hits, misses, filled atomic.Uint64
	closeOnce            sync.Once
}

// PoolStats is a point-in-time gauge snapshot of a pool.
type PoolStats struct {
	Capacity int     `json:"capacity"`
	Depth    int     `json:"depth"`
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	Filled   uint64  `json:"filled"`
	HitRate  float64 `json:"hit_rate"`
}

// NewPool starts a pool of the given capacity with `fillers` background
// generator goroutines calling gen. gen must be safe for concurrent use.
func NewPool[T any](capacity, fillers int, gen func() (T, error)) *Pool[T] {
	if capacity < 1 {
		capacity = 1
	}
	if fillers < 1 {
		fillers = 1
	}
	p := &Pool[T]{
		ch:   make(chan T, capacity),
		gen:  gen,
		low:  capacity / 2,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	p.wg.Add(fillers)
	for i := 0; i < fillers; i++ {
		go p.fill()
	}
	return p
}

func (p *Pool[T]) fill() {
	defer p.wg.Done()
	for {
		// Top up to capacity. The length check races with other fillers
		// and Prefill, but harmlessly: the send below is non-blocking, so
		// a value generated for a slot someone else filled is discarded
		// (wasted work, never a duplicate hand-out or a stall).
		for len(p.ch) < cap(p.ch) {
			select {
			case <-p.done:
				return
			default:
			}
			v, err := p.gen()
			if err != nil {
				// Generation is crypto/rand-backed and essentially never
				// fails; on the off chance it does, back off instead of
				// spinning.
				select {
				case <-p.done:
					return
				case <-time.After(10 * time.Millisecond):
				}
				continue
			}
			select {
			case p.ch <- v:
				p.filled.Add(1)
			default:
			}
		}
		// Full: park until a Draw reports depth at or below the low-water
		// mark (or the pool closes).
		select {
		case <-p.kick:
		case <-p.done:
			return
		}
	}
}

// Draw takes a value if one is ready. It never blocks: ok=false means
// the caller should generate inline.
func (p *Pool[T]) Draw() (T, bool) {
	select {
	case v := <-p.ch:
		p.hits.Add(1)
		if len(p.ch) <= p.low {
			select {
			case p.kick <- struct{}{}:
			default:
			}
		}
		return v, true
	default:
		p.misses.Add(1)
		// Keep the fillers moving while the pool is dry.
		select {
		case p.kick <- struct{}{}:
		default:
		}
		var zero T
		return zero, false
	}
}

// Prefill synchronously generates up to n values into the pool (bounded
// by remaining capacity). Benchmarks and tests use it to start from a
// full pool without waiting on the background fillers.
func (p *Pool[T]) Prefill(n int) error {
	for i := 0; i < n; i++ {
		v, err := p.gen()
		if err != nil {
			return err
		}
		select {
		case p.ch <- v:
			p.filled.Add(1)
		default:
			return nil // full
		}
	}
	return nil
}

// Stats snapshots the pool gauges.
func (p *Pool[T]) Stats() PoolStats {
	s := PoolStats{
		Capacity: cap(p.ch),
		Depth:    len(p.ch),
		Hits:     p.hits.Load(),
		Misses:   p.misses.Load(),
		Filled:   p.filled.Load(),
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// Close stops the fillers and waits for them to exit. Values still
// buffered are discarded; Draw keeps working (it will drain the buffer
// then miss).
func (p *Pool[T]) Close() {
	p.closeOnce.Do(func() { close(p.done) })
	p.wg.Wait()
}
