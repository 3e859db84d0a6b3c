package schnorr

import (
	"crypto/rand"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"p2drm/internal/cryptox/precomp"
)

// Per-group acceleration state (fixed-base table for G, nonce pool)
// lives in a package-level registry keyed by the *Group rather than in
// Group itself: Group stays a plain value type that callers may copy
// freely, while the singletons returned by Group768/Group2048 pick up
// acceleration for every user at once.
type groupState struct {
	table atomic.Pointer[precomp.Table]
	// uses counts ExpG calls served without a table; the one that brings
	// it to tableAfter builds the table.
	uses atomic.Int64
	// claimed is set, once, by the caller that builds the table, and
	// built is closed when that caller has published it.
	claimed atomic.Bool
	built   chan struct{}
	pool    atomic.Pointer[precomp.Pool[Nonce]]
}

var groupStates sync.Map // *Group -> *groupState

func (g *Group) state() *groupState {
	if st, ok := groupStates.Load(g); ok {
		return st.(*groupState)
	}
	st, _ := groupStates.LoadOrStore(g, &groupState{built: make(chan struct{})})
	return st.(*groupState)
}

// blindBits is the width of the exponent-blinding factor: ExpG computes
// g^x as g^(x + r·q) with r drawn fresh from crypto/rand — the same
// group element, since G has order q — so the digit/bit pattern the
// exponentiation consumes is randomized per call even for a fixed
// secret exponent. The table is sized to cover the widened exponent.
const blindBits = 64

// tableAfter is the number of ExpG calls a group serves through
// math/big before it builds its fixed-base table. The build pays for
// itself after build/(plain − table) calls: about 127 for modp768 and
// 80 for modp2048 on the 2-vCPU lab VM (BenchmarkT1_ExpG; figures in
// docs/crypto.md). 128 is the larger, rounded up. A process that keeps
// computing g^x — the daemon, a card, an SDK client, a load generator —
// passes it within its first few operations; a one-shot command, which
// computes a handful, never builds.
const tableAfter = 128

// build builds and publishes the table and returns it, unless another
// caller has claimed the build: then it returns nil at once.
func (st *groupState) build(g *Group) *precomp.Table {
	if !st.claimed.CompareAndSwap(false, true) {
		return nil
	}
	t := newTable(g)
	st.table.Store(t)
	close(st.built)
	return t
}

// newTable builds the fixed-base table for g.G, wide enough for a
// blinded exponent.
func newTable(g *Group) *precomp.Table {
	return precomp.NewTable(g.G, g.P, g.Q.BitLen()+blindBits+8)
}

// Precompute builds the fixed-base table for g.G now instead of at the
// group's tableAfter-th ExpG (tens of ms and ~7 MB of heap for the
// 768-bit group, a few hundred ms and ~41 MB for 2048 bits). The daemon
// calls it so that no request pays the build. It is idempotent, and a
// table is built at most once per group: a call that meets a build in
// progress waits for it.
func (g *Group) Precompute() {
	st := g.state()
	if st.build(g) == nil {
		<-st.built
	}
}

// Precomputed reports whether the fixed-base table is built.
func (g *Group) Precomputed() bool { return g.state().table.Load() != nil }

// ExpG computes G^x mod P: via the fixed-base table once the group has
// one, through math/big before that. The call that brings the group's
// table-less calls to tableAfter builds the table and uses it; calls
// that arrive while it builds take math/big and do not wait.
// Non-negative exponents are blinded with a fresh multiple of the group
// order (x + r·q, r 64-bit random — the same group element, randomized
// digit pattern) on BOTH paths, so the memory-access pattern of either
// is decorrelated from x and the two carry the same side-channel
// posture. ExpG panics if crypto/rand fails rather than run unblinded.
func (g *Group) ExpG(x *big.Int) *big.Int {
	if x.Sign() < 0 {
		return new(big.Int).Exp(g.G, x, g.P)
	}
	e := g.blind(x)
	st := g.state()
	t := st.table.Load()
	if t == nil && st.uses.Add(1) == tableAfter {
		t = st.build(g)
	}
	if t != nil {
		return t.Exp(e)
	}
	return new(big.Int).Exp(g.G, e, g.P)
}

// blind returns x + r·q for a fresh 64-bit r. It fails closed: without
// randomness it panics, as crypto/rand.Read itself does from Go 1.24 on
// (this module still builds with older toolchains, whose Read can
// return the error).
func (g *Group) blind(x *big.Int) *big.Int {
	var rb [blindBits / 8]byte
	if _, err := io.ReadFull(rand.Reader, rb[:]); err != nil {
		panic("schnorr: no randomness to blind an exponent: " + err.Error())
	}
	r := new(big.Int).SetBytes(rb[:])
	return r.Mul(r, g.Q).Add(r, x)
}

// Nonce is a precomputed Schnorr nonce pair (K secret, R = G^K).
type Nonce struct {
	K *big.Int
	R *big.Int
}

// Nonce returns a fresh nonce pair. When random is crypto/rand.Reader
// and a nonce pool is enabled, the pair comes from the pool (each pool
// entry is delivered exactly once); otherwise it is generated inline
// from the caller's reader — so deterministic test readers consume
// exactly the same bytes as the un-pooled code path always did.
func (g *Group) Nonce(random io.Reader) (Nonce, error) {
	if random == rand.Reader {
		if p := g.state().pool.Load(); p != nil {
			if n, ok := p.Draw(); ok {
				return n, nil
			}
		}
	}
	k, err := randScalar(g, random)
	if err != nil {
		return Nonce{}, err
	}
	return Nonce{K: k, R: g.ExpG(k)}, nil
}

// EnableNoncePool starts a background-filled pool of nonce pairs for
// this group (idempotent: an existing pool is kept). Entries are only
// consumed by callers using crypto/rand.Reader.
func (g *Group) EnableNoncePool(capacity, fillers int) {
	st := g.state()
	if st.pool.Load() != nil {
		return
	}
	p := precomp.NewPool(capacity, fillers, func() (Nonce, error) {
		k, err := randScalar(g, rand.Reader)
		if err != nil {
			return Nonce{}, err
		}
		return Nonce{K: k, R: g.ExpG(k)}, nil
	})
	if !st.pool.CompareAndSwap(nil, p) {
		p.Close()
	}
}

// DisableNoncePool stops and removes the group's nonce pool.
func (g *Group) DisableNoncePool() {
	if p := g.state().pool.Swap(nil); p != nil {
		p.Close()
	}
}

// PrefillNoncePool synchronously fills up to n entries (no-op without a
// pool); benchmarks use it to measure the steady warm-pool state.
func (g *Group) PrefillNoncePool(n int) error {
	if p := g.state().pool.Load(); p != nil {
		return p.Prefill(n)
	}
	return nil
}

// NoncePoolStats snapshots the pool gauges; ok=false when no pool is
// enabled.
func (g *Group) NoncePoolStats() (precomp.PoolStats, bool) {
	if p := g.state().pool.Load(); p != nil {
		return p.Stats(), true
	}
	return precomp.PoolStats{}, false
}
