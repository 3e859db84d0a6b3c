package provider

import (
	"crypto/rand"
	"math/big"
	"sync/atomic"

	"p2drm/internal/cryptox/schnorr"
)

// cryptoCounters tracks batch proof verification activity.
type cryptoCounters struct {
	batchRuns     atomic.Uint64 // ExchangeBatch calls that ran a combined check
	batchItems    atomic.Uint64 // proofs submitted to combined checks
	batchRejected atomic.Uint64 // proofs the combined pass reported invalid
}

// BatchVerifyStats reports how much ownership-proof verification went
// through the combined check: the runs, the proofs they covered and the
// proofs they rejected.
func (p *Provider) BatchVerifyStats() (runs, items, rejected uint64) {
	return p.crypto.batchRuns.Load(), p.crypto.batchItems.Load(), p.crypto.batchRejected.Load()
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
	if len(items) < 2 {
		return verdicts // nothing to combine: a lone item verifies inline
	}
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
