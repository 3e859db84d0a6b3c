package provider

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/rel"
	"p2drm/internal/revocation"
	"p2drm/internal/smartcard"
)

var (
	keysOnce sync.Once
	provKey  *rsa.PrivateKey
	bankKey  *rsa.PrivateKey
)

func testKeys() (*rsa.PrivateKey, *rsa.PrivateKey) {
	keysOnce.Do(func() {
		var err error
		if provKey, err = rsa.GenerateKey(rand.Reader, 1024); err != nil {
			panic(err)
		}
		if bankKey, err = rsa.GenerateKey(rand.Reader, 1024); err != nil {
			panic(err)
		}
	})
	return provKey, bankKey
}

var fixedNow = time.Date(2004, 8, 15, 9, 0, 0, 0, time.UTC)

// world bundles a provider, bank and one user card for protocol tests.
type world struct {
	prov    *Provider
	journal *EventLog
	bank    *payment.Bank
	card    *smartcard.Card
	item    *CatalogItem
}

var defaultTemplate = rel.MustParse(`
grant play count 10;
grant transfer;
delegate allow;
`)

func newWorld(t *testing.T) *world {
	t.Helper()
	pk, bk := testKeys()
	spent, _ := kvstore.Open("")
	bank, err := payment.NewBank(bk, spent)
	if err != nil {
		t.Fatal(err)
	}
	bank.CreateAccount("provider", 0)
	bank.CreateAccount("alice", 100)

	store, _ := kvstore.Open("")
	journal := &EventLog{}
	prov, err := New(Config{
		Group:        schnorr.Group768(),
		SignerKey:    pk,
		DenomKeyBits: 1024,
		Store:        store,
		Bank:         bank,
		BankAccount:  "provider",
		Clock:        func() time.Time { return fixedNow },
		Journal:      journal.Record,
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
	return &world{prov: prov, journal: journal, bank: bank, card: card, item: item}
}

// register runs the registration protocol for pseudonym index of w.card.
func (w *world) register(t *testing.T, index uint32) (signPub, encPub []byte) {
	t.Helper()
	return w.registerCard(t, w.card, index)
}

// buy purchases the default item under pseudonym index.
func (w *world) buy(t *testing.T, index uint32) *license.Personalized {
	t.Helper()
	signPub, encPub := w.register(t, index)
	coins, err := w.bank.WithdrawCoins("alice", int(w.item.PriceCredits))
	if err != nil {
		t.Fatal(err)
	}
	lic, err := w.prov.Purchase(context.Background(), PurchaseRequest{
		ContentID: w.item.ID, SignPub: signPub, EncPub: encPub, Coins: coins,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lic
}

func TestRegisterAndPurchase(t *testing.T) {
	w := newWorld(t)
	lic := w.buy(t, 0)
	if err := license.VerifyPersonalized(w.prov.Public(), lic); err != nil {
		t.Fatalf("issued license invalid: %v", err)
	}
	if lic.ContentID != "song-1" {
		t.Errorf("content = %s", lic.ContentID)
	}
	// Payment settled.
	if bal, _ := w.bank.Balance("provider"); bal != 2 {
		t.Errorf("provider balance = %d, want 2", bal)
	}
	// Card can unwrap the content key.
	key, err := w.card.UnwrapContentKey(0, lic.KeyWrap,
		license.WrapLabelPersonalized(lic.Serial, lic.ContentID))
	if err != nil || len(key) != 32 {
		t.Errorf("unwrap: %v", err)
	}
}

func TestPurchaseRequiresRegistration(t *testing.T) {
	w := newWorld(t)
	g := w.prov.Group()
	ps, _ := w.card.Pseudonym(9)
	coins, _ := w.bank.WithdrawCoins("alice", 2)
	_, err := w.prov.Purchase(context.Background(), PurchaseRequest{
		ContentID: w.item.ID, SignPub: ps.SignPublic(g), EncPub: ps.EncPublic(g), Coins: coins,
	})
	if !errors.Is(err, ErrUnknownPseudonym) {
		t.Errorf("err = %v, want ErrUnknownPseudonym", err)
	}
}

func TestPurchaseWrongPayment(t *testing.T) {
	w := newWorld(t)
	signPub, encPub := w.register(t, 0)
	coins, _ := w.bank.WithdrawCoins("alice", 1) // price is 2
	_, err := w.prov.Purchase(context.Background(), PurchaseRequest{
		ContentID: w.item.ID, SignPub: signPub, EncPub: encPub, Coins: coins,
	})
	if !errors.Is(err, ErrWrongPayment) {
		t.Errorf("err = %v, want ErrWrongPayment", err)
	}
}

func TestPurchaseDoubleSpentCoinRejected(t *testing.T) {
	w := newWorld(t)
	signPub, encPub := w.register(t, 0)
	coins, _ := w.bank.WithdrawCoins("alice", 2)
	// Spend one coin first.
	w.bank.CreateAccount("other-shop", 0)
	if err := w.bank.Deposit("other-shop", coins[0]); err != nil {
		t.Fatal(err)
	}
	_, err := w.prov.Purchase(context.Background(), PurchaseRequest{
		ContentID: w.item.ID, SignPub: signPub, EncPub: encPub, Coins: coins,
	})
	if err == nil {
		t.Error("double-spent coin bought a license")
	}
}

func TestRegisterRejectsBadProofAndNonce(t *testing.T) {
	w := newWorld(t)
	g := w.prov.Group()
	ps, _ := w.card.Pseudonym(0)

	// Stale/unknown nonce.
	proof, _ := w.card.Prove(0, RegisterContext("deadbeef"))
	if err := w.prov.Register(context.Background(), ps.SignPublic(g), ps.EncPublic(g), proof, "deadbeef"); !errors.Is(err, ErrBadNonce) {
		t.Errorf("unknown nonce: %v", err)
	}
	// Proof over wrong context.
	nonce, _ := w.prov.Challenge(context.Background())
	wrong, _ := w.card.Prove(0, []byte("not-the-register-context"))
	if err := w.prov.Register(context.Background(), ps.SignPublic(g), ps.EncPublic(g), wrong, nonce); !errors.Is(err, ErrBadProof) {
		t.Errorf("wrong context: %v", err)
	}
	// Nonce burned by the failed attempt: replay must fail.
	good, _ := w.card.Prove(0, RegisterContext(nonce))
	if err := w.prov.Register(context.Background(), ps.SignPublic(g), ps.EncPublic(g), good, nonce); !errors.Is(err, ErrBadNonce) {
		t.Errorf("nonce replay: %v", err)
	}
	// Proof by a different pseudonym than the registered key.
	nonce2, _ := w.prov.Challenge(context.Background())
	otherProof, _ := w.card.Prove(1, RegisterContext(nonce2))
	if err := w.prov.Register(context.Background(), ps.SignPublic(g), ps.EncPublic(g), otherProof, nonce2); !errors.Is(err, ErrBadProof) {
		t.Errorf("foreign proof: %v", err)
	}
}

// exchangeRedeem runs the full anonymous transfer: holder exchanges lic
// for an anonymous license; recipient (pseudonym rIndex on rCard) redeems.
func exchangeRedeem(t *testing.T, w *world, lic *license.Personalized, holderIdx uint32, rCard *smartcard.Card, rIndex uint32) (*license.Anonymous, *license.Personalized, error) {
	t.Helper()
	g := w.prov.Group()
	denomPub, denomID, err := w.prov.DenomPublic(lic.ContentID)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := license.NewSerial()
	if err != nil {
		t.Fatal(err)
	}
	msg := license.AnonymousSigningBytes(serial, denomID)
	blinded, st, err := rsablind.Blind(denomPub, msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := w.prov.Challenge(context.Background())
	proof, err := w.card.Prove(holderIdx, ExchangeContext(nonce, lic.Serial))
	if err != nil {
		t.Fatal(err)
	}
	blindSig, err := w.prov.Exchange(context.Background(), lic, proof, nonce, blinded)
	if err != nil {
		return nil, nil, err
	}
	sig, err := rsablind.Unblind(denomPub, st, blindSig)
	if err != nil {
		t.Fatal(err)
	}
	anon := &license.Anonymous{Serial: serial, Denom: denomID, Sig: sig}

	// Recipient registers a pseudonym and redeems.
	rp, err := rCard.Pseudonym(rIndex)
	if err != nil {
		t.Fatal(err)
	}
	rn, _ := w.prov.Challenge(context.Background())
	rproof, _ := rCard.Prove(rIndex, RegisterContext(rn))
	if err := w.prov.Register(context.Background(), rp.SignPublic(g), rp.EncPublic(g), rproof, rn); err != nil {
		t.Fatal(err)
	}
	newLic, err := w.prov.Redeem(context.Background(), anon, rp.SignPublic(g), rp.EncPublic(g))
	return anon, newLic, err
}

func TestExchangeRedeemFlow(t *testing.T) {
	w := newWorld(t)
	lic := w.buy(t, 0)
	bobCard, _ := smartcard.NewRandom(schnorr.Group768())

	anon, newLic, err := exchangeRedeem(t, w, lic, 0, bobCard, 0)
	if err != nil {
		t.Fatalf("exchange/redeem: %v", err)
	}
	if err := license.VerifyPersonalized(w.prov.Public(), newLic); err != nil {
		t.Fatalf("redeemed license invalid: %v", err)
	}
	// Old license revoked.
	if !w.prov.Revoked(lic.Serial) {
		t.Error("old license not revoked after exchange")
	}
	// Bob's card can unwrap.
	if _, err := bobCard.UnwrapContentKey(0, newLic.KeyWrap,
		license.WrapLabelPersonalized(newLic.Serial, newLic.ContentID)); err != nil {
		t.Errorf("recipient cannot unwrap: %v", err)
	}
	// Anonymous serial consumed.
	_, _, err = func() (*license.Anonymous, *license.Personalized, error) {
		rp, _ := bobCard.Pseudonym(1)
		g := w.prov.Group()
		rn, _ := w.prov.Challenge(context.Background())
		rproof, _ := bobCard.Prove(1, RegisterContext(rn))
		w.prov.Register(context.Background(), rp.SignPublic(g), rp.EncPublic(g), rproof, rn)
		l, err := w.prov.Redeem(context.Background(), anon, rp.SignPublic(g), rp.EncPublic(g))
		return anon, l, err
	}()
	if !errors.Is(err, ErrAlreadyRedeemed) {
		t.Errorf("double redemption: %v, want ErrAlreadyRedeemed", err)
	}
}

func TestExchangeRefusesRevokedLicense(t *testing.T) {
	w := newWorld(t)
	lic := w.buy(t, 0)
	bobCard, _ := smartcard.NewRandom(schnorr.Group768())
	if _, _, err := exchangeRedeem(t, w, lic, 0, bobCard, 0); err != nil {
		t.Fatal(err)
	}
	// Alice kept a copy of the (now revoked) license and tries again.
	_, _, err := exchangeRedeem(t, w, lic, 0, bobCard, 2)
	if !errors.Is(err, ErrLicenseRevoked) {
		t.Errorf("re-exchange of revoked license: %v", err)
	}
}

func TestExchangeRefusesForeignLicense(t *testing.T) {
	w := newWorld(t)
	lic := w.buy(t, 0)
	// Mallory copied Alice's license file but has a different card.
	mallory, _ := smartcard.NewRandom(schnorr.Group768())
	g := w.prov.Group()
	denomPub, denomID, _ := w.prov.DenomPublic(lic.ContentID)
	serial, _ := license.NewSerial()
	blinded, _, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := w.prov.Challenge(context.Background())
	proof, _ := mallory.Prove(0, ExchangeContext(nonce, lic.Serial))
	_, err = w.prov.Exchange(context.Background(), lic, proof, nonce, blinded)
	if !errors.Is(err, ErrBadProof) {
		t.Errorf("stolen license exchanged: %v", err)
	}
	_ = g
}

func TestExchangeRefusesForgedLicense(t *testing.T) {
	w := newWorld(t)
	lic := w.buy(t, 0)
	lic.Rights = rel.MustParse("grant play;") // tamper
	nonce, _ := w.prov.Challenge(context.Background())
	proof, _ := w.card.Prove(0, ExchangeContext(nonce, lic.Serial))
	if _, err := w.prov.Exchange(context.Background(), lic, proof, nonce, []byte{1, 2, 3}); err == nil {
		t.Error("forged license exchanged")
	}
}

func TestRedeemForgedAnonymousRejected(t *testing.T) {
	w := newWorld(t)
	signPub, encPub := w.register(t, 0)
	_, denomID, _ := w.prov.DenomPublic(w.item.ID)
	serial, _ := license.NewSerial()
	forged := &license.Anonymous{Serial: serial, Denom: denomID, Sig: make([]byte, 128)}
	if _, err := w.prov.Redeem(context.Background(), forged, signPub, encPub); err == nil {
		t.Error("forged anonymous license redeemed")
	}
	// Unknown denomination.
	var badDenom license.DenominationID
	badDenom[0] = 0xFF
	forged2 := &license.Anonymous{Serial: serial, Denom: badDenom, Sig: make([]byte, 128)}
	if _, err := w.prov.Redeem(context.Background(), forged2, signPub, encPub); !errors.Is(err, ErrUnknownDenom) {
		t.Errorf("unknown denom: %v", err)
	}
}

func TestDenominationSeparation(t *testing.T) {
	// An anonymous license blind-signed for cheap content must not redeem
	// as expensive content: denominations are separate keys.
	w := newWorld(t)
	expensive, err := w.prov.AddContent("movie-1", "Blockbuster", 50, defaultTemplate, []byte("film"))
	if err != nil {
		t.Fatal(err)
	}
	lic := w.buy(t, 0) // cheap song
	g := w.prov.Group()

	denomPubSong, _, _ := w.prov.DenomPublic("song-1")
	_, denomMovie, _ := w.prov.DenomPublic("movie-1")

	// Build the anonymous message CLAIMING the movie denomination but
	// blind-signed by the song key via exchange.
	serial, _ := license.NewSerial()
	msg := license.AnonymousSigningBytes(serial, denomMovie)
	blinded, st, _ := rsablind.Blind(denomPubSong, msg, rand.Reader)
	nonce, _ := w.prov.Challenge(context.Background())
	proof, _ := w.card.Prove(0, ExchangeContext(nonce, lic.Serial))
	blindSig, err := w.prov.Exchange(context.Background(), lic, proof, nonce, blinded)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := rsablind.Unblind(denomPubSong, st, blindSig)
	if err != nil {
		t.Fatal(err)
	}
	anon := &license.Anonymous{Serial: serial, Denom: denomMovie, Sig: sig}
	ps, _ := w.card.Pseudonym(0)
	if _, err := w.prov.Redeem(context.Background(), anon, ps.SignPublic(g), ps.EncPublic(g)); err == nil {
		t.Error("song-denominated signature redeemed a movie license")
	}
	_ = expensive
}

func TestRevocationArtifacts(t *testing.T) {
	w := newWorld(t)
	lic := w.buy(t, 0)
	bobCard, _ := smartcard.NewRandom(schnorr.Group768())
	if _, _, err := exchangeRedeem(t, w, lic, 0, bobCard, 0); err != nil {
		t.Fatal(err)
	}
	sf, err := w.prov.RevocationFilter()
	if err != nil {
		t.Fatal(err)
	}
	f, err := revocation.VerifyFilter(w.prov.Public(), sf)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Contains(lic.Serial[:]) {
		t.Error("filter missing exchanged serial")
	}
}

func TestJournalShape(t *testing.T) {
	// The journal must never contain the anonymous serial at exchange
	// time — that would break unlinkability by construction.
	w := newWorld(t)
	lic := w.buy(t, 0)
	bobCard, _ := smartcard.NewRandom(schnorr.Group768())
	anon, _, err := exchangeRedeem(t, w, lic, 0, bobCard, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawExchange, sawRedeem bool
	for _, e := range w.journal.Events() {
		switch e.Type {
		case EvExchange:
			sawExchange = true
			if e.AnonSerial != "" {
				t.Error("exchange event leaked an anonymous serial")
			}
			if e.Serial != lic.Serial.String() {
				t.Error("exchange event missing old serial")
			}
		case EvRedeem:
			sawRedeem = true
			if e.AnonSerial != anon.Serial.String() {
				t.Error("redeem event missing anonymous serial")
			}
			if e.PseudonymFP == "" {
				t.Error("redeem event missing pseudonym fingerprint")
			}
		}
	}
	if !sawExchange || !sawRedeem {
		t.Error("journal missing exchange/redeem events")
	}
}

func TestAddContentValidation(t *testing.T) {
	w := newWorld(t)
	if _, err := w.prov.AddContent("", "x", 1, defaultTemplate, nil); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := w.prov.AddContent("neg", "x", -1, defaultTemplate, nil); err == nil {
		t.Error("negative price accepted")
	}
	if _, err := w.prov.AddContent("song-1", "dup", 1, defaultTemplate, nil); err == nil {
		t.Error("duplicate content accepted")
	}
	// A template built as a literal can hold what the rights language
	// cannot carry; every license sold under it would fail to decode.
	for i, class := range []string{"\x88", "a\tb"} {
		tmpl := defaultTemplate.Clone()
		tmpl.DeviceClasses = []string{class}
		if _, err := w.prov.AddContent(license.ContentID(fmt.Sprint("odd-class-", i)), "x", 1, tmpl, nil); err == nil {
			t.Errorf("template with device class %q accepted", class)
		}
	}
	if _, err := w.prov.Item("missing"); !errors.Is(err, ErrUnknownContent) {
		t.Error("unknown item lookup succeeded")
	}
	if len(w.prov.Catalog()) != 1 {
		t.Errorf("catalog size = %d", len(w.prov.Catalog()))
	}
}

func TestNewConfigValidation(t *testing.T) {
	pk, bk := testKeys()
	st, _ := kvstore.Open("")
	spent, _ := kvstore.Open("")
	bank, _ := payment.NewBank(bk, spent)
	cases := []Config{
		{SignerKey: pk, Store: st, Bank: bank, BankAccount: "p"},
		{Group: schnorr.Group768(), Store: st, Bank: bank, BankAccount: "p"},
		{Group: schnorr.Group768(), SignerKey: pk, Bank: bank, BankAccount: "p"},
		{Group: schnorr.Group768(), SignerKey: pk, Store: st, BankAccount: "p"},
		{Group: schnorr.Group768(), SignerKey: pk, Store: st, Bank: bank},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
