package provider

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/license"
)

// exchangeItem builds one valid ExchangeBatch entry for a license held
// by pseudonym index.
func (w *world) exchangeItem(t *testing.T, lic *license.Personalized, index uint32) ExchangeItem {
	t.Helper()
	return w.pendingExchange(t, lic, index).item
}

// ExchangeBatch with the combined proof check must accept and reject
// exactly what per-item Exchange would: valid items succeed, a
// corrupted proof fails with ErrBadProof without poisoning its
// neighbors, and the nonce check still fires first for a dead nonce.
func TestExchangeBatchPreverifyEquivalence(t *testing.T) {
	w := newWorld(t)
	const n = 6
	items := make([]ExchangeItem, n)
	for i := 0; i < n; i++ {
		lic := w.buy(t, uint32(i))
		items[i] = w.exchangeItem(t, lic, uint32(i))
	}
	// 1: corrupted proof scalar.
	items[1].Proof.Sig.S = new(big.Int).Add(items[1].Proof.Sig.S, big.NewInt(1))
	items[1].Proof.Sig.S.Mod(items[1].Proof.Sig.S, w.prov.Group().Q)
	// 2: nil proof.
	items[2].Proof = nil
	// 3: stale nonce — consumed before the batch runs; the nonce error
	// must win even though the proof itself is valid.
	if err := w.prov.consumeNonce(items[3].Nonce); err != nil {
		t.Fatal(err)
	}
	// 4: legacy proof without commitment (still valid, verifies inline).
	legacy, err := schnorr.ParseProof(w.prov.Group(), items[4].Proof.Sig.Bytes(w.prov.Group()))
	if err != nil {
		t.Fatal(err)
	}
	items[4].Proof = legacy

	results := w.prov.ExchangeBatch(context.Background(), items)
	wantErr := map[int]error{1: ErrBadProof, 2: ErrBadProof, 3: ErrBadNonce}
	for i, res := range results {
		if want, bad := wantErr[i]; bad {
			if !errors.Is(res.Err, want) {
				t.Errorf("item %d: err %v, want %v", i, res.Err, want)
			}
			continue
		}
		if res.Err != nil {
			t.Errorf("item %d: unexpected error %v", i, res.Err)
		}
		if len(res.BlindSig) == 0 {
			t.Errorf("item %d: empty blind signature", i)
		}
	}

	runs, batched, rejected := w.prov.BatchVerifyStats()
	if runs == 0 {
		t.Error("no batch verify run recorded")
	}
	// Items 0,1,3,4,5 had license+proof material; 2 (nil proof) did not.
	if batched != 5 {
		t.Errorf("batch items = %d, want 5", batched)
	}
	if rejected != 1 {
		t.Errorf("batch rejected = %d, want 1 (the corrupted proof)", rejected)
	}
}

// A batch where every proof is valid must consume no per-item
// verification at all and still enforce single-winner semantics when
// the same license appears twice.
func TestExchangeBatchDuplicateLicenseSingleWinner(t *testing.T) {
	w := newWorld(t)
	lic := w.buy(t, 0)
	items := []ExchangeItem{
		w.exchangeItem(t, lic, 0),
		w.exchangeItem(t, lic, 0),
	}
	results := w.prov.ExchangeBatch(context.Background(), items)
	winners := 0
	for _, res := range results {
		if res.Err == nil {
			winners++
		} else if !errors.Is(res.Err, ErrLicenseRevoked) {
			t.Errorf("loser error = %v, want ErrLicenseRevoked", res.Err)
		}
	}
	if winners != 1 {
		t.Fatalf("%d winners for one license, want exactly 1", winners)
	}
}
