package provider

// Tests for the signed-root issuing path: how many private-key operations
// a call costs, what may share a root, what a failed signature takes with
// it, and that a license out of a batch lives the life of any other.

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/rsa"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math/big"
	"strings"
	"testing"
	"time"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/device"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/rel"
	"p2drm/internal/smartcard"
)

// rsaOps is a reading of the three key roles' private-operation counters.
type rsaOps struct{ license, denomination, coin uint64 }

func (o rsaOps) total() uint64 { return o.license + o.denomination + o.coin }

// opsOf runs f and returns the private-key operations it cost, by the
// role of the key.
func (w *world) opsOf(f func()) rsaOps {
	l0, d0 := w.prov.RSAPrivateOps()
	c0 := w.bank.RSAPrivateOps()
	f()
	l1, d1 := w.prov.RSAPrivateOps()
	return rsaOps{l1 - l0, d1 - d0, w.bank.RSAPrivateOps() - c0}
}

// The count this change is about, read from the signers themselves. A
// 16-license call to one pseudonym costs the license key ONE operation —
// IssueBatch, RedeemBatch and a single Purchase alike — and one op of the
// `batch` workload costs 50 in all (32 coins, 16 blind exchange
// signatures, 2 roots) where signing each license cost 80. A `playback`
// op signs exactly as often as it did: 5.
func TestPrivateKeyOperationsPerCall(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	buyerSign, buyerEnc := w.register(t, 0)
	peer, err := smartcard.NewRandom(schnorr.Group768())
	if err != nil {
		t.Fatal(err)
	}
	peerSign, peerEnc := w.registerCard(t, peer, 0)

	// One op of the benchmark's `batch` workload, call by call: 32 coins
	// withdrawn, 16 licenses bought under the buyer's standing pseudonym,
	// all exchanged, all redeemed to the peer's.
	const n = 16
	var flow rsaOps
	count := func(what string, want rsaOps, f func()) {
		t.Helper()
		got := w.opsOf(f)
		if got != want {
			t.Errorf("%s: %+v, want %+v", what, got, want)
		}
		flow.license += got.license
		flow.denomination += got.denomination
		flow.coin += got.coin
	}
	var reqs []PurchaseRequest
	count("withdrawing the coins of 16 purchases", rsaOps{coin: 2 * n}, func() {
		reqs = w.purchaseRequests(t, buyerSign, buyerEnc, n)
	})
	var bought []BatchResult
	count("IssueBatch of 16 to one pseudonym", rsaOps{license: 1}, func() { bought = w.prov.IssueBatch(ctx, reqs) })
	exchanges, pendings := make([]ExchangeItem, n), make([]pendingToken, n)
	for i, res := range bought {
		if res.Err != nil {
			t.Fatalf("purchase %d: %v", i, res.Err)
		}
		if err := license.VerifyPersonalized(w.prov.Public(), res.License); err != nil {
			t.Fatalf("purchase %d: %v", i, err)
		}
		if len(res.License.Path.Siblings) != 4 || !bytes.Equal(res.License.ProviderSig, bought[0].License.ProviderSig) {
			t.Errorf("purchase %d: path of %d and a signature of its own; want 4 siblings under the call's one root",
				i, len(res.License.Path.Siblings))
		}
		pendings[i] = w.pendingExchange(t, res.License, 0)
		exchanges[i] = pendings[i].item
	}
	var blind []ExchangeBatchResult
	count("ExchangeBatch of 16", rsaOps{denomination: n}, func() { blind = w.prov.ExchangeBatch(ctx, exchanges) })
	redeems := make([]RedeemItem, n)
	for i, res := range blind {
		if res.Err != nil {
			t.Fatalf("exchange %d: %v", i, res.Err)
		}
		redeems[i] = RedeemItem{Anonymous: w.anonymous(t, pendings[i], res.BlindSig), SignPub: peerSign, EncPub: peerEnc}
	}
	var redeemed []BatchResult
	count("RedeemBatch of 16 to one pseudonym", rsaOps{license: 1}, func() { redeemed = w.prov.RedeemBatch(ctx, redeems) })
	for i, res := range redeemed {
		if res.Err != nil {
			t.Fatalf("redeem %d: %v", i, res.Err)
		}
		if err := license.VerifyPersonalized(w.prov.Public(), res.License); err != nil {
			t.Fatalf("redeem %d: %v", i, err)
		}
	}

	if flow.total() != 50 {
		t.Errorf("one batch-shaped flow: %+v = %d operations, want 2 + 16 + 32 = 50 (80 when each license was signed)", flow, flow.total())
	}

	// playback-shaped: withdraw 2, purchase, exchange, redeem to a fresh
	// pseudonym — every issue is the one-leaf case.
	var lic *license.Personalized
	if got := w.opsOf(func() { lic = w.buy(t, 0) }); got != (rsaOps{license: 1, coin: 2}) {
		t.Errorf("a single purchase: %+v, want 2 coins and one license-key operation", got)
	}
	if len(lic.Path.Siblings) != 0 {
		t.Errorf("a license bought alone has a path of %d", len(lic.Path.Siblings))
	}
	got := w.opsOf(func() {
		l := w.buy(t, 0)
		if _, _, err := exchangeRedeem(t, w, l, 0, peer, 1); err != nil {
			t.Fatal(err)
		}
	})
	if got != (rsaOps{license: 2, denomination: 1, coin: 2}) || got.total() != 5 {
		t.Errorf("one playback-shaped flow: %+v = %d operations, want 5 as before", got, got.total())
	}
}

// A root never spans two pseudonyms: a call that names two yields two
// roots, nothing of one holder's licenses appears in the other's, and one
// holder's root does not vouch for the other's license.
func TestRootNeverSpansTwoPseudonyms(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	aSign, aEnc := w.register(t, 0)
	bSign, bEnc := w.register(t, 1)

	const n = 10
	reqs := w.purchaseRequests(t, aSign, aEnc, n)
	for i := 1; i < n; i += 2 { // interleave: slot order must not matter
		reqs[i].SignPub, reqs[i].EncPub = bSign, bEnc
	}
	var results []BatchResult
	if got := w.opsOf(func() { results = w.prov.IssueBatch(ctx, reqs) }); got.license != 2 {
		t.Errorf("a call naming two pseudonyms cost %d license-key operations, want 2", got.license)
	}
	sigs := map[string]string{} // provider signature -> holder it was made for
	hashes := map[[32]byte]string{}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("slot %d: %v", i, res.Err)
		}
		l := res.License
		if err := license.VerifyPersonalized(w.prov.Public(), l); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if want := reqs[i].SignPub; !bytes.Equal(l.HolderSign, want) {
			t.Fatalf("slot %d: issued to another holder than it asked for", i)
		}
		holder := string(l.HolderSign)
		if prev, ok := sigs[string(l.ProviderSig)]; ok && prev != holder {
			t.Errorf("slot %d: its root signature is also on another pseudonym's license", i)
		}
		sigs[string(l.ProviderSig)] = holder
		for _, sib := range l.Path.Siblings {
			if prev, ok := hashes[sib]; ok && prev != holder {
				t.Errorf("slot %d: a node of its path is also on another pseudonym's path", i)
			}
			hashes[sib] = holder
		}
		if len(l.Path.Siblings) > 3 {
			t.Errorf("slot %d: path of %d under a root of %d licenses", i, len(l.Path.Siblings), n/2)
		}
	}
	if len(sigs) != 2 {
		t.Errorf("%d distinct root signatures, want one per pseudonym", len(sigs))
	}
	// What ties a call's licenses together stays on the licenses: the
	// journal holds no root signature and no node of any path.
	journal, err := json.Marshal(w.journal.Events())
	if err != nil {
		t.Fatal(err)
	}
	for sig := range sigs {
		for _, enc := range []string{hex.EncodeToString([]byte(sig)), base64.StdEncoding.EncodeToString([]byte(sig))} {
			if bytes.Contains(journal, []byte(enc)) {
				t.Error("a root signature is in the journal")
			}
		}
	}
	for node := range hashes {
		for _, enc := range []string{hex.EncodeToString(node[:]), base64.StdEncoding.EncodeToString(node[:])} {
			if bytes.Contains(journal, []byte(enc)) {
				t.Error("a path node is in the journal")
			}
		}
	}
	a, b := results[0].License, results[1].License
	forged, _ := license.UnmarshalPersonalized(a.Marshal())
	forged.ProviderSig = b.ProviderSig
	if err := license.VerifyPersonalized(w.prov.Public(), forged); err == nil {
		t.Error("holder A's license verifies under holder B's root signature")
	}
	forged.Path = b.Path
	if err := license.VerifyPersonalized(w.prov.Public(), forged); err == nil {
		t.Error("holder A's license verifies at holder B's place under B's root")
	}

	// The same on the redeem side.
	exchanges, pendings := make([]ExchangeItem, 4), make([]pendingToken, 4)
	for i := range exchanges {
		idx := uint32(i % 2) // slots 0,2 are A's (index 0), 1,3 are B's (index 1)
		pendings[i] = w.pendingExchange(t, results[i].License, idx)
		exchanges[i] = pendings[i].item
	}
	redeems := make([]RedeemItem, 4)
	for i, res := range w.prov.ExchangeBatch(ctx, exchanges) {
		if res.Err != nil {
			t.Fatalf("exchange %d: %v", i, res.Err)
		}
		redeems[i] = RedeemItem{Anonymous: w.anonymous(t, pendings[i], res.BlindSig), SignPub: aSign, EncPub: aEnc}
		if i >= 2 {
			redeems[i].SignPub, redeems[i].EncPub = bSign, bEnc
		}
	}
	var redeemed []BatchResult
	if got := w.opsOf(func() { redeemed = w.prov.RedeemBatch(ctx, redeems) }); got.license != 2 {
		t.Errorf("a redeem call naming two pseudonyms cost %d license-key operations, want 2", got.license)
	}
	for i, res := range redeemed {
		if res.Err != nil {
			t.Fatalf("redeem %d: %v", i, res.Err)
		}
		if err := license.VerifyPersonalized(w.prov.Public(), res.License); err != nil {
			t.Fatalf("redeem %d: %v", i, err)
		}
	}
	if bytes.Equal(redeemed[0].License.ProviderSig, redeemed[2].License.ProviderSig) {
		t.Error("redeemed licenses of two pseudonyms share a root signature")
	}
}

// issued reports whether the store holds the issuance record of lic, and
// holds it as the license reads now.
func (w *world) issued(lic *license.Personalized) bool {
	rec, ok := w.prov.cfg.Store.Get(issuedKey(lic.Serial))
	return ok && bytes.Equal(rec, lic.Marshal())
}

// A root that cannot be signed fails every slot of its group — no license
// of the group is signed or recorded — and no slot of another group.
func TestFailedRootFailsItsGroupOnly(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	aSign, aEnc := w.register(t, 0)
	bSign, bEnc := w.register(t, 1)
	lics := make([]*license.Personalized, 9) // slot 8 stays nil: a slot that failed earlier
	for i := 0; i < 8; i++ {
		var err error
		if i%2 == 0 {
			lics[i], err = w.prov.build(w.item, aSign, aEnc)
		} else {
			lics[i], err = w.prov.build(w.item, bSign, bEnc)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	lics[4].ContentID = "" // license.Sign refuses A's group over this one
	errs := make([]error, len(lics))
	w.prov.issueBatch(ctx, lics, func(i int, err error) { errs[i] = err })
	for i, l := range lics[:8] {
		switch {
		case i%2 == 0 && (errs[i] == nil || l.ProviderSig != nil || w.issued(l)):
			t.Errorf("slot %d (failed group): err=%v signed=%v recorded=%v; want failed, unsigned, unrecorded",
				i, errs[i], l.ProviderSig != nil, w.issued(l))
		case i%2 == 1 && (errs[i] != nil || !w.issued(l) || license.VerifyPersonalized(w.prov.Public(), l) != nil):
			t.Errorf("slot %d (healthy group): err=%v recorded=%v; want issued", i, errs[i], w.issued(l))
		}
	}
	if errs[8] != nil {
		t.Errorf("the empty slot was failed again: %v", errs[8])
	}
}

// More licenses to one pseudonym than a root covers are split over as
// many roots as it takes; none is refused (their money has moved).
func TestGroupLargerThanARootIsSplit(t *testing.T) {
	w := newWorld(t)
	signPub, encPub := w.register(t, 0)
	lics := make([]*license.Personalized, license.MaxPerRoot+3)
	for i := range lics {
		var err error
		if lics[i], err = w.prov.build(w.item, signPub, encPub); err != nil {
			t.Fatal(err)
		}
	}
	got := w.opsOf(func() {
		w.prov.issueBatch(context.Background(), lics, func(i int, err error) { t.Errorf("slot %d: %v", i, err) })
	})
	if got.license != 2 {
		t.Errorf("%d licenses to one pseudonym cost %d license-key operations, want 2", len(lics), got.license)
	}
	for i, l := range lics {
		if err := license.VerifyPersonalized(w.prov.Public(), l); err != nil || !w.issued(l) {
			t.Fatalf("license %d: verify %v, recorded %v", i, err, w.issued(l))
		}
	}
}

// A provider whose license key computes wrongly issues nothing: the
// fault check in the signer turns every signature into an error, the
// error fails every slot, and no record is written.
func TestFaultedLicenseKeyIssuesNothing(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	signPub, encPub := w.register(t, 0)
	key, err := rsa.GenerateKey(rand.Reader, 1024) // own key: the fault stays out of the shared one
	if err != nil {
		t.Fatal(err)
	}
	if w.prov.signer, err = rsablind.NewSigner(key); err != nil {
		t.Fatal(err)
	}
	key.Precomputed.Dp = new(big.Int).Add(key.Precomputed.Dp, big.NewInt(2))

	coins, err := w.bank.WithdrawCoins("alice", 2)
	if err != nil {
		t.Fatal(err)
	}
	lic, err := w.prov.Purchase(ctx, PurchaseRequest{ContentID: w.item.ID, SignPub: signPub, EncPub: encPub, Coins: coins})
	if !errors.Is(err, rsablind.ErrFault) || lic != nil {
		t.Errorf("Purchase on a faulted key = %v, %v; want no license and ErrFault", lic, err)
	}
	for i, res := range w.prov.IssueBatch(ctx, w.purchaseRequests(t, signPub, encPub, 4)) {
		if !errors.Is(res.Err, rsablind.ErrFault) || res.License != nil {
			t.Errorf("slot %d on a faulted key = %v, %v; want no license and ErrFault", i, res.License, res.Err)
		}
	}
	count := 0
	w.prov.cfg.Store.PrefixScan([]byte("issued:"), func(k, v []byte) bool { count++; return true })
	if count != 0 {
		t.Errorf("%d issuance records written by a key that cannot sign", count)
	}
	for _, e := range w.journal.Events() {
		if e.Type == EvPurchase {
			t.Errorf("a purchase was journalled that issued nothing: %+v", e)
		}
	}
}

// A license out of a batch call is a license: it plays on a compliant
// device, exchanges through the single-request path, and what redeems
// from it — again out of a batch — plays too. A license whose path was
// bent does none of it.
func TestBatchLicenseLivesAFullLife(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	buyerSign, buyerEnc := w.register(t, 0)
	peer, err := smartcard.NewRandom(schnorr.Group768())
	if err != nil {
		t.Fatal(err)
	}
	peerSign, peerEnc := w.registerCard(t, peer, 0)

	st, _ := kvstore.Open("")
	dev, err := device.New(device.Config{
		ID: "dev-1", Class: "audio", Region: "EU",
		Group: w.prov.Group(), ProviderPub: w.prov.Public(), State: st,
		Clock: func() time.Time { return fixedNow.Add(time.Minute) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sf, err := w.prov.RevocationFilter()
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.InstallRevocationFilter(sf); err != nil {
		t.Fatal(err)
	}
	play := func(card *smartcard.Card, lic *license.Personalized) error {
		var out bytes.Buffer
		err := dev.Play(card, 0, lic, bytes.NewReader(w.item.Encrypted), &out)
		if err == nil && out.String() != "audio-bytes-here" {
			t.Fatalf("played %q", out.String())
		}
		return err
	}

	bought := w.prov.IssueBatch(ctx, w.purchaseRequests(t, buyerSign, buyerEnc, 5)) // odd: promoted nodes
	for i, res := range bought {
		if res.Err != nil {
			t.Fatalf("purchase %d: %v", i, res.Err)
		}
		if err := play(w.card, res.License); err != nil {
			t.Errorf("license %d of a batch does not play: %v", i, err)
		}
	}
	bent, _ := license.UnmarshalPersonalized(bought[0].License.Marshal())
	bent.Path.Rights[0] = !bent.Path.Rights[0]
	if err := play(w.card, bent); err == nil {
		t.Error("a license with a bent path played")
	}
	p := w.pendingExchange(t, bent, 0)
	if _, err := w.exchangeAs(false, p.item); err == nil || !strings.Contains(err.Error(), "provider signature") {
		t.Errorf("a license with a bent path: exchange = %v, want the signature refusal", err)
	}

	// Exchange one of them alone, the rest in a batch; redeem all in one.
	anons := []*license.Anonymous{anonFor(t, w, bought[0].License, 0)}
	exchanges, pendings := make([]ExchangeItem, 4), make([]pendingToken, 4)
	for i := range exchanges {
		pendings[i] = w.pendingExchange(t, bought[i+1].License, 0)
		exchanges[i] = pendings[i].item
	}
	for i, res := range w.prov.ExchangeBatch(ctx, exchanges) {
		if res.Err != nil {
			t.Fatalf("exchange %d: %v", i, res.Err)
		}
		anons = append(anons, w.anonymous(t, pendings[i], res.BlindSig))
	}
	redeems := make([]RedeemItem, len(anons))
	for i, a := range anons {
		redeems[i] = RedeemItem{Anonymous: a, SignPub: peerSign, EncPub: peerEnc}
	}
	for i, res := range w.prov.RedeemBatch(ctx, redeems) {
		if res.Err != nil {
			t.Fatalf("redeem %d: %v", i, res.Err)
		}
		if err := play(peer, res.License); err != nil {
			t.Errorf("redeemed license %d does not play for its new holder: %v", i, err)
		}
		if err := play(w.card, res.License); err == nil {
			t.Errorf("redeemed license %d plays for the old holder", i)
		}
	}
	// The retired ones are revoked for a device that refreshes its filter.
	sf, err = w.prov.RevocationFilter()
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.InstallRevocationFilter(sf); err != nil {
		t.Fatal(err)
	}
	if err := play(w.card, bought[2].License); err == nil {
		t.Error("an exchanged license still plays after the filter refresh")
	}
}

// Exchange holds the presented license against its issuance record first
// and verifies a signature only to say why a license that is not on
// record is refused. Pinned here: the order of refusals, and that the
// record alone admits.
func TestExchangeRefusalOrder(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	lic := w.buy(t, 0)
	attempt := func(l *license.Personalized, mutate func(*ExchangeItem)) error {
		p := w.pendingExchange(t, l, 0)
		if mutate != nil {
			mutate(&p.item)
		}
		return w.prov.ExchangeBatch(ctx, []ExchangeItem{p.item})[0].Err
	}
	copyOf := func() *license.Personalized {
		c, err := license.UnmarshalPersonalized(lic.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// 1. A stale key id, before the nonce is looked at.
	if err := attempt(lic, func(it *ExchangeItem) { it.KeyID, it.Nonce = "0000000000000000", "bogus" }); !errors.Is(err, rsablind.ErrStaleKey) {
		t.Errorf("stale key id and bad nonce: %v, want ErrStaleKey", err)
	}
	// 2. The nonce, before the license is looked at.
	forged := copyOf()
	forged.Rights = rel.MustParse("grant play;")
	if err := attempt(forged, func(it *ExchangeItem) { it.Nonce = "bogus" }); !errors.Is(err, ErrBadNonce) {
		t.Errorf("bad nonce and forged license: %v, want ErrBadNonce", err)
	}
	// 3. A license that is not the bytes on record and does not verify:
	// the verification error — structure first, then the signature.
	if err := attempt(lic, func(it *ExchangeItem) { it.License = nil }); err == nil || !strings.Contains(err.Error(), "nil license") {
		t.Errorf("nil license: %v", err)
	}
	hollow := copyOf()
	hollow.HolderEnc = nil
	if err := attempt(hollow, nil); err == nil || !strings.Contains(err.Error(), "missing holder keys") {
		t.Errorf("license without holder keys: %v, want the structural refusal", err)
	}
	if err := attempt(forged, nil); err == nil || !strings.Contains(err.Error(), "provider signature") {
		t.Errorf("forged license: %v, want the signature refusal", err)
	}
	resigned := copyOf()
	resigned.Path.LeafIndex = 1 // unauthenticated position field: verifies, but is not what was issued
	if err := license.VerifyPersonalized(w.prov.Public(), resigned); err != nil {
		t.Fatal(err)
	}
	if err := attempt(resigned, nil); err == nil || !strings.Contains(err.Error(), "not on issuance record") {
		t.Errorf("verifying license that differs from its record: %v, want 'not on issuance record'", err)
	}
	// 4. A license this key signed and this store never issued.
	signPub, encPub := w.register(t, 0)
	stranger, err := w.prov.build(w.item, signPub, encPub)
	if err != nil {
		t.Fatal(err)
	}
	if err := license.Sign(w.prov.signer, stranger); err != nil {
		t.Fatal(err)
	}
	if err := attempt(stranger, nil); err == nil || !strings.Contains(err.Error(), "not on issuance record") {
		t.Errorf("well-signed license without a record: %v, want 'not on issuance record'", err)
	}
	// 5. On record: the ownership proof, after the record and before
	// anything is revoked.
	mallory, err := smartcard.NewRandom(schnorr.Group768())
	if err != nil {
		t.Fatal(err)
	}
	if err := attempt(lic, func(it *ExchangeItem) {
		it.Proof, _ = mallory.Prove(0, ExchangeContext(it.Nonce, lic.Serial))
	}); !errors.Is(err, ErrBadProof) {
		t.Errorf("bad proof: %v, want ErrBadProof", err)
	}
	if w.prov.Revoked(lic.Serial) {
		t.Fatal("a refused exchange revoked the license")
	}
	// 6. The record alone admits: these bytes are on record under a
	// signature no key made (what a license issued before a restart, under
	// the previous boot's key, looks like to this process), and exchange.
	old, err := w.prov.build(w.item, signPub, encPub)
	if err != nil {
		t.Fatal(err)
	}
	old.ProviderSig = bytes.Repeat([]byte{0x5a}, 128)
	if err := w.prov.cfg.Store.Put(issuedKey(old.Serial), old.Marshal()); err != nil {
		t.Fatal(err)
	}
	if err := attempt(old, nil); err != nil {
		t.Errorf("license on record: %v, want it exchanged on the record alone", err)
	}
	// 7. Exchanged once: revoked from then on.
	if err := attempt(lic, nil); err != nil {
		t.Fatalf("the license itself: %v", err)
	}
	if err := attempt(lic, nil); !errors.Is(err, ErrLicenseRevoked) {
		t.Errorf("second exchange: %v, want ErrLicenseRevoked", err)
	}
}
