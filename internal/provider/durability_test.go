package provider

import (
	"context"
	"crypto/rand"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/smartcard"
)

// durableWorld is world on group-commit stores whose durability waits
// are counted together: one store shared by the bank ledger and the
// provider, as the daemon runs them, or with twoStores a store each.
type durableWorld struct {
	*world
	bankStore, provStore *kvstore.Store
	waits                atomic.Int64
}

func newDurableWorld(t *testing.T, twoStores bool) *durableWorld {
	t.Helper()
	dw := &durableWorld{}
	open := func() *kvstore.Store {
		st, err := kvstore.OpenWith(t.TempDir(), kvstore.Options{Sync: kvstore.SyncGroupCommit})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		st.SetObserver(&kvstore.Observer{CommitWaitSeconds: func(time.Duration) { dw.waits.Add(1) }})
		return st
	}
	dw.provStore = open()
	dw.bankStore = dw.provStore
	if twoStores {
		dw.bankStore = open()
	}
	pk, bk := testKeys()
	bank, err := payment.NewBank(bk, dw.bankStore)
	if err != nil {
		t.Fatal(err)
	}
	bank.CreateAccount("provider", 0)
	bank.CreateAccount("alice", 1000)
	prov, err := New(Config{
		Group: schnorr.Group768(), SignerKey: pk, DenomKeyBits: 1024,
		Store: dw.provStore, Bank: bank, BankAccount: "provider",
		Clock: func() time.Time { return fixedNow },
	})
	if err != nil {
		t.Fatal(err)
	}
	item, err := prov.AddContent("song-1", "Test Song", 2, defaultTemplate, []byte("audio-bytes-here"))
	if err != nil {
		t.Fatal(err)
	}
	card, err := smartcard.NewRandom(schnorr.Group768())
	if err != nil {
		t.Fatal(err)
	}
	dw.world = &world{prov: prov, bank: bank, card: card, item: item}
	return dw
}

// waitsOf runs f and returns how many durability waits it cost.
func (dw *durableWorld) waitsOf(f func()) int64 {
	before := dw.waits.Load()
	f()
	return dw.waits.Load() - before
}

// undurable reports the logged bytes of a store that are not yet behind
// its durable horizon.
func undurable(st *kvstore.Store) int64 {
	_, off := st.DurableOffset()
	return st.Stats().LoggedBytes - off
}

// purchaseRequests builds n paid-up purchases for one registered
// pseudonym.
func (w *world) purchaseRequests(t *testing.T, signPub, encPub []byte, n int) []PurchaseRequest {
	t.Helper()
	reqs := make([]PurchaseRequest, n)
	for i := range reqs {
		coins, err := w.bank.WithdrawCoins("alice", int(w.item.PriceCredits))
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = PurchaseRequest{ContentID: w.item.ID, SignPub: signPub, EncPub: encPub, Coins: coins}
	}
	return reqs
}

// pendingToken is the client side of one exchange: the request to send
// and what it takes to turn the answer into an anonymous license.
type pendingToken struct {
	item   ExchangeItem
	serial license.Serial
	state  *rsablind.State
}

func (w *world) pendingExchange(t *testing.T, lic *license.Personalized, holderIdx uint32) pendingToken {
	t.Helper()
	denomPub, denomID, err := w.prov.DenomPublic(lic.ContentID)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := license.NewSerial()
	if err != nil {
		t.Fatal(err)
	}
	blinded, st, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	nonce, err := w.prov.Challenge(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := w.card.Prove(holderIdx, ExchangeContext(nonce, lic.Serial))
	if err != nil {
		t.Fatal(err)
	}
	return pendingToken{item: ExchangeItem{License: lic, Proof: proof, Nonce: nonce, Blinded: blinded}, serial: serial, state: st}
}

func (w *world) anonymous(t *testing.T, p pendingToken, blindSig []byte) *license.Anonymous {
	t.Helper()
	denomPub, denomID, err := w.prov.DenomPublic(p.item.License.ContentID)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := rsablind.Unblind(denomPub, p.state, blindSig)
	if err != nil {
		t.Fatal(err)
	}
	return &license.Anonymous{Serial: p.serial, Denom: denomID, Sig: sig}
}

// TestDurabilityWaitsPerCall pins what each entry point costs in fsync
// waits: one per store it wrote to, whatever the number of records. On
// the daemon's one store a purchase waits once, and so do sixteen: the
// log orders the spent marks before the licence, so the payment-before-
// goods barrier has nothing to wait for. With the ledger on a store of
// its own, the barrier waits on it and a purchase costs two.
func TestDurabilityWaitsPerCall(t *testing.T) {
	for _, tc := range []struct {
		name      string
		twoStores bool
		purchase  int64
	}{
		{"one store", false, 1},
		{"two stores", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) { durabilityWaitsPerCall(t, tc.twoStores, tc.purchase) })
	}
}

func durabilityWaitsPerCall(t *testing.T, twoStores bool, purchaseWaits int64) {
	dw := newDurableWorld(t, twoStores)
	ctx := context.Background()
	const n = 16
	check := func(call string, want int64, f func()) {
		t.Helper()
		if got := dw.waitsOf(f); got != want {
			t.Errorf("%s: %d durability waits, want %d", call, got, want)
		}
		if undurable(dw.bankStore) != 0 || undurable(dw.provStore) != 0 {
			t.Errorf("%s returned with records not yet durable", call)
		}
	}

	var signPub, encPub []byte
	check("Register", 1, func() { signPub, encPub = dw.register(t, 0) })

	single := dw.purchaseRequests(t, signPub, encPub, 1)[0]
	var lic *license.Personalized
	check("Purchase", purchaseWaits, func() {
		var err error
		if lic, err = dw.prov.Purchase(ctx, single); err != nil {
			t.Fatal(err)
		}
	})

	tok := dw.pendingExchange(t, lic, 0)
	var anon *license.Anonymous
	check("Exchange", 1, func() {
		sig, err := dw.prov.Exchange(ctx, tok.item.License, tok.item.Proof, tok.item.Nonce, tok.item.Blinded)
		if err != nil {
			t.Fatal(err)
		}
		anon = dw.anonymous(t, tok, sig)
	})
	check("Redeem", 1, func() {
		if _, err := dw.prov.Redeem(ctx, anon, signPub, encPub); err != nil {
			t.Fatal(err)
		}
	})
	check("Redeem refused", 1, func() {
		if _, err := dw.prov.Redeem(ctx, anon, signPub, encPub); !errors.Is(err, ErrAlreadyRedeemed) {
			t.Fatalf("second redeem: %v", err)
		}
	})

	reqs := dw.purchaseRequests(t, signPub, encPub, n)
	var lics []*license.Personalized
	check("IssueBatch(16)", purchaseWaits, func() {
		for i, res := range dw.prov.IssueBatch(ctx, reqs) {
			if res.Err != nil {
				t.Fatalf("purchase slot %d: %v", i, res.Err)
			}
			lics = append(lics, res.License)
		}
	})

	toks := make([]pendingToken, n)
	items := make([]ExchangeItem, n)
	for i, l := range lics {
		toks[i] = dw.pendingExchange(t, l, 0)
		items[i] = toks[i].item
	}
	redeems := make([]RedeemItem, n)
	check("ExchangeBatch(16)", 1, func() {
		for i, res := range dw.prov.ExchangeBatch(ctx, items) {
			if res.Err != nil {
				t.Fatalf("exchange slot %d: %v", i, res.Err)
			}
			redeems[i] = RedeemItem{Anonymous: dw.anonymous(t, toks[i], res.BlindSig), SignPub: signPub, EncPub: encPub}
		}
	})
	check("RedeemBatch(16)", 1, func() {
		for i, res := range dw.prov.RedeemBatch(ctx, redeems) {
			if res.Err != nil {
				t.Fatalf("redeem slot %d: %v", i, res.Err)
			}
		}
	})
}

// TestRefusalsWaitForTheWinner: a request that loses one of the three
// durable gates to a request still short of its fsync (here the winner
// runs under a caller's commit set that is never settled) does not get
// its refusal before the record it lost to is durable — on one store and
// on two.
func TestRefusalsWaitForTheWinner(t *testing.T) {
	t.Run("one store", func(t *testing.T) { refusalsWaitForTheWinner(t, false) })
	t.Run("two stores", func(t *testing.T) { refusalsWaitForTheWinner(t, true) })
}

func refusalsWaitForTheWinner(t *testing.T, twoStores bool) {
	dw := newDurableWorld(t, twoStores)
	signPub, encPub := dw.register(t, 0)
	// The winners join this set, so none of them waits.
	winCtx, _ := kvstore.BeginCommit(context.Background())
	ctx := context.Background()

	lic, err := dw.prov.Purchase(winCtx, dw.purchaseRequests(t, signPub, encPub, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if undurable(dw.provStore) == 0 {
		t.Fatal("Purchase under a caller's commit set waited for the provider store itself")
	}
	if twoStores && undurable(dw.bankStore) != 0 {
		t.Error("payment-before-goods barrier skipped: license issued with the spent marks not durable")
	}

	// Spent-coin ledger: pay with a coin whose deposit is in flight.
	respend := dw.purchaseRequests(t, signPub, encPub, 1)[0]
	if err := dw.bank.DepositCtx(winCtx, "provider", respend.Coins[0]); err != nil {
		t.Fatal(err)
	}
	if undurable(dw.bankStore) == 0 {
		t.Fatal("DepositCtx under a commit set waited")
	}
	if _, err := dw.prov.Purchase(ctx, respend); !errors.Is(err, payment.ErrDoubleSpend) {
		t.Fatalf("re-spent coin: %v, want ErrDoubleSpend", err)
	}
	if undurable(dw.bankStore) != 0 {
		t.Error("ErrDoubleSpend reported with the spent mark it collided with not durable")
	}

	// Revoked-serial list: exchange a license whose exchange is in flight.
	first, second := dw.pendingExchange(t, lic, 0), dw.pendingExchange(t, lic, 0)
	sig, err := dw.prov.Exchange(winCtx, first.item.License, first.item.Proof, first.item.Nonce, first.item.Blinded)
	if err != nil {
		t.Fatal(err)
	}
	if undurable(dw.provStore) == 0 {
		t.Fatal("Exchange under a caller's commit set waited")
	}
	if _, err := dw.prov.Exchange(ctx, second.item.License, second.item.Proof, second.item.Nonce, second.item.Blinded); !errors.Is(err, ErrLicenseRevoked) {
		t.Fatalf("second exchange: %v, want ErrLicenseRevoked", err)
	}
	if undurable(dw.provStore) != 0 {
		t.Error("ErrLicenseRevoked reported with the revocation not durable")
	}

	// Redeemed-serial set.
	anon := dw.anonymous(t, first, sig)
	if _, err := dw.prov.Redeem(winCtx, anon, signPub, encPub); err != nil {
		t.Fatal(err)
	}
	if undurable(dw.provStore) == 0 {
		t.Fatal("Redeem under a caller's commit set waited")
	}
	if _, err := dw.prov.Redeem(ctx, anon, signPub, encPub); !errors.Is(err, ErrAlreadyRedeemed) {
		t.Fatalf("second redeem: %v, want ErrAlreadyRedeemed", err)
	}
	if undurable(dw.provStore) != 0 {
		t.Error("ErrAlreadyRedeemed reported with the redeemed mark not durable")
	}
}

// TestFailedWaitFailsEverySlot: when the boundary wait of a batch fails,
// no slot is reported as committed — not the ones that computed a
// license, and not the one refused on the strength of a record that may
// now be lost. When the wait that fails is the payment barrier on a
// ledger store of its own, no issuance record is appended at all.
func TestFailedWaitFailsEverySlot(t *testing.T) {
	dw := newDurableWorld(t, true)
	ctx := context.Background()
	signPub, encPub := dw.register(t, 0)
	const n = 4
	var redeems []RedeemItem
	var lics []*license.Personalized
	for i, res := range dw.prov.IssueBatch(ctx, dw.purchaseRequests(t, signPub, encPub, n)) {
		if res.Err != nil {
			t.Fatalf("purchase slot %d: %v", i, res.Err)
		}
		lics = append(lics, res.License)
	}
	for _, l := range lics[:2] {
		tok := dw.pendingExchange(t, l, 0)
		sig, err := dw.prov.Exchange(ctx, l, tok.item.Proof, tok.item.Nonce, tok.item.Blinded)
		if err != nil {
			t.Fatal(err)
		}
		redeems = append(redeems, RedeemItem{Anonymous: dw.anonymous(t, tok, sig), SignPub: signPub, EncPub: encPub})
	}
	redeems = append(redeems, redeems[0]) // one slot loses the redeemed-serial CAS
	exchanges := []ExchangeItem{dw.pendingExchange(t, lics[2], 0).item, dw.pendingExchange(t, lics[3], 0).item}
	reqs := dw.purchaseRequests(t, signPub, encPub, n)
	issued := func() (count int) {
		dw.provStore.PrefixScan([]byte("issued:"), func(k, v []byte) bool { count++; return true })
		return count
	}
	issuedBefore := issued()

	bankDown := errors.New("bank disk: injected fsync failure")
	dw.bankStore.PoisonWAL(bankDown)
	for i, res := range dw.prov.IssueBatch(ctx, reqs) {
		if !errors.Is(res.Err, bankDown) || res.License != nil {
			t.Errorf("purchase slot %d after a failed payment barrier: license %v, err %v", i, res.License != nil, res.Err)
		}
	}
	if _, err := dw.prov.Purchase(ctx, dw.purchaseRequests(t, signPub, encPub, 1)[0]); !errors.Is(err, bankDown) {
		t.Errorf("Purchase after a failed payment barrier: %v", err)
	}
	if got := issued(); got != issuedBefore {
		t.Errorf("%d issuance records appended behind a failed payment barrier", got-issuedBefore)
	}

	provDown := errors.New("provider disk: injected fsync failure")
	dw.provStore.PoisonWAL(provDown)
	for i, res := range dw.prov.RedeemBatch(ctx, redeems) {
		if !errors.Is(res.Err, provDown) || res.License != nil {
			t.Errorf("redeem slot %d after a failed boundary wait: license %v, err %v", i, res.License != nil, res.Err)
		}
	}
	for i, res := range dw.prov.ExchangeBatch(ctx, exchanges) {
		if !errors.Is(res.Err, provDown) || res.BlindSig != nil {
			t.Errorf("exchange slot %d after a failed boundary wait: signature %v, err %v", i, res.BlindSig != nil, res.Err)
		}
	}
}
