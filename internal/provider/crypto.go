package provider

import (
	"crypto/rand"
	"math/big"
	"sync/atomic"

	"p2drm/internal/cryptox/precomp"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
)

// cryptoCounters tracks batch proof verification activity for the stats
// surface.
type cryptoCounters struct {
	batchRuns     atomic.Uint64 // ExchangeBatch calls that ran a combined check
	batchItems    atomic.Uint64 // proofs submitted to combined checks
	batchRejected atomic.Uint64 // proofs the combined pass reported invalid
}

// CryptoStats is the crypto acceleration gauge snapshot served at
// /v2/stats: whether the fixed-base table for the group
// generator is built, nonce/blinding pool depth and hit rate, and how
// much proof verification went through the batched path.
type CryptoStats struct {
	GroupPrecomputed bool `json:"group_precomputed"`
	// NoncePool is the group's Schnorr/KEM nonce pool (absent when not
	// enabled).
	NoncePool *precomp.PoolStats `json:"nonce_pool,omitempty"`
	// BlindingPools reports RSA blinding-factor pools registered in this
	// process for the provider's denomination keys, keyed by
	// denomination id. Populated by in-process clients (core.System);
	// remote clients keep their pools on their own side.
	BlindingPools map[string]precomp.PoolStats `json:"blinding_pools,omitempty"`

	BatchVerifyRuns     uint64 `json:"batch_verify_runs"`
	BatchVerifyItems    uint64 `json:"batch_verify_items"`
	BatchVerifyRejected uint64 `json:"batch_verify_rejected"`
}

// CryptoStats snapshots the crypto acceleration gauges.
func (p *Provider) CryptoStats() *CryptoStats {
	cs := &CryptoStats{
		GroupPrecomputed:    p.group.Precomputed(),
		BatchVerifyRuns:     p.crypto.batchRuns.Load(),
		BatchVerifyItems:    p.crypto.batchItems.Load(),
		BatchVerifyRejected: p.crypto.batchRejected.Load(),
	}
	if st, ok := p.group.NoncePoolStats(); ok {
		cs.NoncePool = &st
	}
	p.catMu.RLock()
	defer p.catMu.RUnlock()
	for id, signer := range p.denoms {
		if st, ok := rsablind.BlindingPoolStats(signer.Public()); ok {
			if cs.BlindingPools == nil {
				cs.BlindingPools = make(map[string]precomp.PoolStats)
			}
			cs.BlindingPools[id.String()] = st
		}
	}
	return cs
}

// proofVerdict carries a pre-computed ownership-proof verdict into the
// per-item exchange path: Err is exactly what schnorr.VerifyProof would
// have returned for the same inputs (the batch verifier guarantees it).
type proofVerdict struct {
	err error
}

// preverifyExchangeProofs runs one combined Schnorr check over every
// batch item that has the license and proof material to participate and
// returns per-item verdicts (nil slots mean the item must verify
// inline). Items with a missing license or proof are left to the
// per-item path, which reports the precise error in its usual order.
func (p *Provider) preverifyExchangeProofs(items []ExchangeItem) []*proofVerdict {
	verdicts := make([]*proofVerdict, len(items))
	idx := make([]int, 0, len(items))
	batch := make([]schnorr.BatchProofItem, 0, len(items))
	for i, it := range items {
		if it.License == nil || it.Proof == nil {
			continue
		}
		batch = append(batch, schnorr.BatchProofItem{
			Y:       new(big.Int).SetBytes(it.License.HolderSign),
			Context: ExchangeContext(it.Nonce, it.License.Serial),
			Proof:   it.Proof,
		})
		idx = append(idx, i)
	}
	if len(batch) < 2 {
		return verdicts
	}
	errs := schnorr.VerifyProofBatch(p.group, batch, rand.Reader)
	p.crypto.batchRuns.Add(1)
	p.crypto.batchItems.Add(uint64(len(batch)))
	for bi, i := range idx {
		if errs[bi] != nil {
			p.crypto.batchRejected.Add(1)
		}
		verdicts[i] = &proofVerdict{err: errs[bi]}
	}
	return verdicts
}
