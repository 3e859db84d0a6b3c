package main

// Trace generation. Op i of a workload is a pure function of
// (seed, workload, i), so a trace has no length limit, the saturated
// phase can consume as many ops as complete, and the daemon sees only
// the generated requests.

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"

	"p2drm/internal/license"
)

type opKind uint8

const (
	opPlayback opKind = iota
	opCatalog
	opContent
	opStats
	opRevCheck
	opFilter
	opPurchase
	opBatch
)

var opKindNames = [...]string{"playback", "catalog", "content", "stats", "revcheck", "filter", "purchase", "batch"}

func (k opKind) String() string { return opKindNames[k] }

// opSpec is one generated operation.
type opSpec struct {
	kind opKind
	// user buys or reads; peer (always a different user) redeems.
	user, peer int
	// serial selects the revocation-check probe: revoked picks one of the
	// workload's preloaded serials (the check must answer true), otherwise
	// a never-issued serial (must answer false).
	serial  int
	revoked bool
}

// splitmix64 is the stateless mixer behind the trace: cheap, and good
// enough that consecutive inputs give independent-looking draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mixBlock is the stratification unit of a workload's mix: every run of
// mixBlock consecutive ops holds each kind in exactly its percentage, in
// an order shuffled per block. A plain per-op draw would let the count of
// the expensive kinds (a twentieth of revstorm is purchases) swing by a
// tenth from seed to seed, and the metrics with it.
const mixBlock = 100

// opAt generates op i of workload w under seed.
func opAt(w *workload, seed int64, i int) opSpec {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	base := splitmix64(uint64(seed) ^ h.Sum64())
	draws := func(stream uint64) func(n int) int {
		state := base + stream*0x9e3779b97f4a7c15
		return func(n int) int {
			state = splitmix64(state)
			return int(state % uint64(n))
		}
	}
	// The block's shuffle comes from the block number, the op's own
	// choices from its index: two streams that never collide.
	shuffle := draws(uint64(i/mixBlock)<<1 | 1)
	var pct [mixBlock]int
	for j := range pct {
		k := shuffle(j + 1)
		pct[j] = pct[k]
		pct[k] = j
	}
	draw := draws(uint64(i) << 1)
	op := opSpec{user: draw(w.users)}
	op.peer = (op.user + 1 + draw(w.users-1)) % w.users
	for _, m := range w.mix {
		if pct[i%mixBlock] < m.upTo {
			op.kind = m.kind
			break
		}
	}
	if op.kind == opRevCheck {
		op.revoked = w.preload > 0 && draw(2) == 0
		if op.revoked {
			op.serial = draw(w.preload)
		} else {
			op.serial = draw(1 << 20)
		}
	}
	return op
}

// serialFor derives the j-th serial of a class ("revoked" serials are
// preloaded before boot, "live" ones are never issued) under seed.
func serialFor(seed int64, class string, j int) license.Serial {
	return license.Serial(sha256.Sum256([]byte(fmt.Sprintf("p2drm-benchmark/%d/%s/%d", seed, class, j))))
}
