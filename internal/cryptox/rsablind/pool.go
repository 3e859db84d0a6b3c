package rsablind

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"sync"

	"p2drm/internal/cryptox/precomp"
)

// blindingFactor is one precomputed blinding triple for a specific
// public key: Blind needs r^e (to blind) and r^-1 (to unblind); r
// itself is never used again, so the pool does not keep it.
type blindingFactor struct {
	re   *big.Int
	rInv *big.Int
}

// Blinding-factor pools are registered per public key: the factors are
// bound to (N, e), so the registry is keyed by a key fingerprint. Like
// the schnorr nonce pool, pooled values are only handed to callers
// blinding with crypto/rand.Reader — any other reader takes the inline
// path and consumes exactly the bytes it always did.
var blindPools sync.Map // string -> *precomp.Pool[blindingFactor]

func poolKey(pub *rsa.PublicKey) string {
	h := sha256.New()
	h.Write(pub.N.Bytes())
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], uint64(pub.E))
	h.Write(e[:])
	return string(h.Sum(nil))
}

// EnableBlindingPool starts a background-filled pool of blinding
// factors for pub (idempotent per key).
func EnableBlindingPool(pub *rsa.PublicKey, capacity, fillers int) {
	key := poolKey(pub)
	if _, ok := blindPools.Load(key); ok {
		return
	}
	p := precomp.NewPool(capacity, fillers, func() (blindingFactor, error) {
		return newFactor(pub, rand.Reader)
	})
	if _, loaded := blindPools.LoadOrStore(key, p); loaded {
		p.Close()
	}
}

// DisableBlindingPool stops and removes pub's pool.
func DisableBlindingPool(pub *rsa.PublicKey) {
	if p, ok := blindPools.LoadAndDelete(poolKey(pub)); ok {
		p.(*precomp.Pool[blindingFactor]).Close()
	}
}

// PrefillBlindingPool synchronously fills up to n factors (no-op
// without a pool for pub).
func PrefillBlindingPool(pub *rsa.PublicKey, n int) error {
	if p, ok := blindPools.Load(poolKey(pub)); ok {
		return p.(*precomp.Pool[blindingFactor]).Prefill(n)
	}
	return nil
}

// BlindingPoolStats snapshots pub's pool gauges; ok=false when no pool
// is registered for the key.
func BlindingPoolStats(pub *rsa.PublicKey) (precomp.PoolStats, bool) {
	if p, ok := blindPools.Load(poolKey(pub)); ok {
		return p.(*precomp.Pool[blindingFactor]).Stats(), true
	}
	return precomp.PoolStats{}, false
}

func drawFactor(pub *rsa.PublicKey) (blindingFactor, bool) {
	if p, ok := blindPools.Load(poolKey(pub)); ok {
		return p.(*precomp.Pool[blindingFactor]).Draw()
	}
	return blindingFactor{}, false
}
