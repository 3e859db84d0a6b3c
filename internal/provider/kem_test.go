package provider

// The provider's key wraps: one KEM share per pseudonym (not per license),
// and a pseudonym is the registered (sign key, enc key) PAIR.

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/license"
	"p2drm/internal/smartcard"
)

// shares runs f and returns how the sender's counters moved across it.
func (w *world) shares(f func()) (cached, computed uint64) {
	c0, m0 := w.prov.KEMShareStats()
	f()
	c1, m1 := w.prov.KEMShareStats()
	return c1 - c0, m1 - m0
}

// registerCard runs the registration protocol for pseudonym index of card.
func (w *world) registerCard(t *testing.T, card *smartcard.Card, index uint32) (signPub, encPub []byte) {
	t.Helper()
	ctx, g := context.Background(), w.prov.Group()
	ps, err := card.Pseudonym(index)
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := w.prov.Challenge(ctx)
	proof, err := card.Prove(index, RegisterContext(nonce))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.prov.Register(ctx, ps.SignPublic(g), ps.EncPublic(g), proof, nonce); err != nil {
		t.Fatal(err)
	}
	return ps.SignPublic(g), ps.EncPublic(g)
}

// A registered sign key does not vouch for an enc key it was not
// registered with: such a purchase or redemption is an unknown pseudonym,
// refused before a coin is deposited, a serial burned or a share computed.
func TestPseudonymIsAPair(t *testing.T) {
	w := newWorld(t)
	ctx, g := context.Background(), w.prov.Group()
	sign0, enc0 := w.register(t, 0)
	_, enc1 := w.register(t, 1)
	// The attack: a key pair of the attacker's own making, never shown to
	// Register, beside someone's registered sign key.
	own, err := schnorr.GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	foreign := map[string][]byte{
		"another pseudonym's enc key": enc1,
		"an unregistered enc key":     g.EncodeElement(own.Y),
		"no enc key":                  nil,
		"the enc key, truncated":      enc0[1:],
		"the sign key twice":          sign0,
	}

	coins, err := w.bank.WithdrawCoins("alice", int(w.item.PriceCredits))
	if err != nil {
		t.Fatal(err)
	}
	for name, enc := range foreign {
		cached, computed := w.shares(func() {
			_, err := w.prov.Purchase(ctx, PurchaseRequest{ContentID: w.item.ID, SignPub: sign0, EncPub: enc, Coins: coins})
			if !errors.Is(err, ErrUnknownPseudonym) {
				t.Errorf("purchase naming %s: err = %v, want ErrUnknownPseudonym", name, err)
			}
		})
		if cached+computed != 0 {
			t.Errorf("purchase naming %s reached the sender", name)
		}
	}
	if bal, _ := w.bank.Balance("provider"); bal != 0 {
		t.Fatalf("refused purchases deposited %d coins", bal)
	}
	// The same coins still buy under the pair that was registered.
	lic, err := w.prov.Purchase(ctx, PurchaseRequest{ContentID: w.item.ID, SignPub: sign0, EncPub: enc0, Coins: coins})
	if err != nil {
		t.Fatalf("purchase under the registered pair: %v", err)
	}

	anon := anonFor(t, w, lic, 0)
	for name, enc := range foreign {
		if _, err := w.prov.Redeem(ctx, anon, sign0, enc); !errors.Is(err, ErrUnknownPseudonym) {
			t.Errorf("redeem naming %s: err = %v, want ErrUnknownPseudonym", name, err)
		}
	}
	for i, res := range w.prov.RedeemBatch(ctx, []RedeemItem{
		{Anonymous: anon, SignPub: sign0, EncPub: enc1},
		{Anonymous: anon, SignPub: sign0, EncPub: g.EncodeElement(own.Y)},
	}) {
		if !errors.Is(res.Err, ErrUnknownPseudonym) {
			t.Errorf("batch slot %d: err = %v, want ErrUnknownPseudonym", i, res.Err)
		}
	}
	// None of that burned the serial.
	if _, err := w.prov.Redeem(ctx, anon, sign0, enc0); err != nil {
		t.Fatalf("redeem under the registered pair after the refusals: %v", err)
	}

	// Registering again under the same sign key replaces the pair.
	nonce, _ := w.prov.Challenge(ctx)
	proof, _ := w.card.Prove(0, RegisterContext(nonce))
	if err := w.prov.Register(ctx, sign0, enc1, proof, nonce); err != nil {
		t.Fatal(err)
	}
	if !w.prov.registered(sign0, enc1) || w.prov.registered(sign0, enc0) {
		t.Error("re-registration did not replace the pair")
	}
}

// Once per pseudonym, not once per license: a bulk purchase or a bulk
// redemption to one pseudonym computes one share however many licenses it
// issues, the next one none; a redemption to a fresh pseudonym computes
// its one, as the unlinkability design makes it.
func TestOneSharePerPseudonym(t *testing.T) {
	const n = 16
	ctx := context.Background()
	for _, slots := range []int{1, 4} {
		w := newWorld(t)
		// Workers that meet a new key together may each compute it, so the
		// exact count is a statement about one worker; with several the
		// bound is the worker count.
		w.prov.batchSlots = make(chan struct{}, slots)
		signPub, encPub := w.register(t, 0)

		var lics []*license.Personalized
		for round, wantComputed := range []uint64{1, 0} {
			reqs := w.purchaseRequests(t, signPub, encPub, n)
			cached, computed := w.shares(func() {
				for i, res := range w.prov.IssueBatch(ctx, reqs) {
					if res.Err != nil {
						t.Fatalf("slots=%d purchase %d: %v", slots, i, res.Err)
					}
					lics = append(lics, res.License)
				}
			})
			if cached+computed != n {
				t.Errorf("slots=%d round %d: %d wraps for %d licenses", slots, round, cached+computed, n)
			}
			if computed < wantComputed || computed > wantComputed*uint64(slots) {
				t.Errorf("slots=%d round %d: IssueBatch of %d to one pseudonym computed %d shares, want %d (at most one per worker)",
					slots, round, n, computed, wantComputed)
			}
		}

		// Retire them and redeem all to ONE peer pseudonym.
		peer, err := smartcard.NewRandom(w.prov.Group())
		if err != nil {
			t.Fatal(err)
		}
		peerSign, peerEnc := w.registerCard(t, peer, 0)
		items := make([]RedeemItem, n)
		for i := range items {
			items[i] = RedeemItem{Anonymous: anonFor(t, w, lics[i], 0), SignPub: peerSign, EncPub: peerEnc}
		}
		cached, computed := w.shares(func() {
			for i, res := range w.prov.RedeemBatch(ctx, items) {
				if res.Err != nil {
					t.Fatalf("slots=%d redeem %d: %v", slots, i, res.Err)
				}
			}
		})
		if cached+computed != n || computed < 1 || computed > uint64(slots) {
			t.Errorf("slots=%d: RedeemBatch of %d to one pseudonym: cached=%d computed=%d, want one share (at most one per worker)",
				slots, n, cached, computed)
		}

		// One redemption to a pseudonym never seen before: one share.
		freshSign, freshEnc := w.registerCard(t, peer, 1)
		anon := anonFor(t, w, lics[n], 0)
		cached, computed = w.shares(func() {
			if _, err := w.prov.Redeem(ctx, anon, freshSign, freshEnc); err != nil {
				t.Fatal(err)
			}
		})
		if cached != 0 || computed != 1 {
			t.Errorf("slots=%d: Redeem to a fresh pseudonym: cached=%d computed=%d, want 0/1", slots, cached, computed)
		}
	}
}

// Every issuing path wraps through the provider's one sender — there is
// no per-license encapsulation beside it: whichever entry point issued a
// license, its KEM is the process's one group element, and the holder's
// card opens it.
func TestEveryIssuingPathUsesTheSender(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	signPub, encPub := w.register(t, 0)

	issued := map[string]*license.Personalized{"Purchase": w.buy(t, 0)}
	batch := w.prov.IssueBatch(ctx, w.purchaseRequests(t, signPub, encPub, 3))
	for _, res := range batch {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	issued["IssueBatch"] = batch[0].License
	redeemed, err := w.prov.Redeem(ctx, anonFor(t, w, batch[1].License, 0), signPub, encPub)
	if err != nil {
		t.Fatal(err)
	}
	issued["Redeem"] = redeemed
	rb := w.prov.RedeemBatch(ctx, []RedeemItem{{Anonymous: anonFor(t, w, batch[2].License, 0), SignPub: signPub, EncPub: encPub}})
	if rb[0].Err != nil {
		t.Fatal(rb[0].Err)
	}
	issued["RedeemBatch"] = rb[0].License

	want := issued["Purchase"].KeyWrap.KEM
	for path, lic := range issued {
		if !bytes.Equal(lic.KeyWrap.KEM, want) {
			t.Errorf("%s issued a license under an ephemeral of its own", path)
		}
		if _, err := w.card.UnwrapContentKey(0, lic.KeyWrap, license.WrapLabelPersonalized(lic.Serial, lic.ContentID)); err != nil {
			t.Errorf("%s: holder cannot unwrap: %v", path, err)
		}
	}
	if cached, computed := w.prov.KEMShareStats(); cached != 5 || computed != 1 {
		t.Errorf("six licenses to one pseudonym: cached=%d computed=%d, want 5/1", cached, computed)
	}
	// Tampering with one license's copy of the element reaches no other.
	issued["Purchase"].KeyWrap.KEM[0] ^= 0xff
	again := w.buy(t, 0)
	if !bytes.Equal(again.KeyWrap.KEM, issued["Redeem"].KeyWrap.KEM) {
		t.Error("a caller's write to its license changed the sender's element")
	}
}

// Nothing about the sender is stored, so a restart loses nothing: a
// provider rebuilt over the same store and keys draws a new ephemeral,
// and a license issued before still unwraps (it carries its own element)
// and still exchanges.
func TestLicenseSurvivesProviderRebuild(t *testing.T) {
	w := newWorld(t)
	before := w.buy(t, 0)
	signPub, encPub := w.register(t, 0)
	batch := w.prov.IssueBatch(context.Background(), w.purchaseRequests(t, signPub, encPub, 3))
	for i, res := range batch {
		if res.Err != nil {
			t.Fatalf("batch purchase %d: %v", i, res.Err)
		}
	}
	fromBatch := batch[1].License // under a root it shares with two others

	rebuilt, err := New(Config{
		Group:        w.prov.group,
		SignerKey:    w.prov.cfg.SignerKey,
		DenomKeyBits: 1024,
		Store:        w.prov.cfg.Store,
		Bank:         w.bank,
		BankAccount:  "provider",
		Clock:        func() time.Time { return fixedNow },
	})
	if err != nil {
		t.Fatal(err)
	}
	item, err := rebuilt.AddContent(w.item.ID, "Test Song", 2, defaultTemplate, []byte("audio-bytes-here"))
	if err != nil {
		t.Fatal(err)
	}
	w.prov, w.item = rebuilt, item

	after := w.buy(t, 0)
	if bytes.Equal(before.KeyWrap.KEM, after.KeyWrap.KEM) {
		t.Error("the rebuilt provider re-used the old ephemeral: it was stored somewhere")
	}
	for name, lic := range map[string]*license.Personalized{"before": before, "in a batch before": fromBatch, "after": after} {
		if _, err := w.card.UnwrapContentKey(0, lic.KeyWrap, license.WrapLabelPersonalized(lic.Serial, lic.ContentID)); err != nil {
			t.Errorf("license issued %s the rebuild does not unwrap: %v", name, err)
		}
		if err := license.VerifyPersonalized(rebuilt.Public(), lic); err != nil {
			t.Errorf("license issued %s the rebuild does not verify: %v", name, err)
		}
	}
	anonFor(t, w, before, 0) // fatal unless the rebuilt provider exchanges it
	anonFor(t, w, fromBatch, 0)
}
