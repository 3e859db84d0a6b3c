package provider

// Invariant tests for the concurrent serving path. Run with -race: they
// exercise the races the fine-grained locking must win — double redeem of
// one serial, duplicate nonce consumption, and catalog mutation during
// serving-path reads.

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"testing"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/license"
	"p2drm/internal/smartcard"
)

// anonFor exchanges lic (held by pseudonym holderIdx on w.card) and
// returns the unblinded anonymous bearer license without redeeming it.
func anonFor(t *testing.T, w *world, lic *license.Personalized, holderIdx uint32) *license.Anonymous {
	t.Helper()
	ctx := context.Background()
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
	nonce, _ := w.prov.Challenge(ctx)
	proof, err := w.card.Prove(holderIdx, ExchangeContext(nonce, lic.Serial))
	if err != nil {
		t.Fatal(err)
	}
	blindSig, err := w.prov.Exchange(ctx, lic, proof, nonce, blinded)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := rsablind.Unblind(denomPub, st, blindSig)
	if err != nil {
		t.Fatal(err)
	}
	return &license.Anonymous{Serial: serial, Denom: denomID, Sig: sig}
}

func TestConcurrentRedeemSingleWinner(t *testing.T) {
	w := newWorld(t)
	lic := w.buy(t, 0)
	anon := anonFor(t, w, lic, 0)
	ctx := context.Background()
	g := w.prov.Group()

	// Register the racing recipient pseudonyms up front.
	const racers = 16
	type recipient struct{ signPub, encPub []byte }
	recipients := make([]recipient, racers)
	for i := range recipients {
		card, err := smartcard.NewRandom(schnorr.Group768())
		if err != nil {
			t.Fatal(err)
		}
		ps, _ := card.Pseudonym(0)
		nonce, _ := w.prov.Challenge(ctx)
		proof, _ := card.Prove(0, RegisterContext(nonce))
		if err := w.prov.Register(ctx, ps.SignPublic(g), ps.EncPublic(g), proof, nonce); err != nil {
			t.Fatal(err)
		}
		recipients[i] = recipient{ps.SignPublic(g), ps.EncPublic(g)}
	}

	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := range recipients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = w.prov.Redeem(ctx, anon, recipients[i].signPub, recipients[i].encPub)
		}(i)
	}
	wg.Wait()

	wins := 0
	for i, err := range errs {
		switch {
		case err == nil:
			wins++
		case errors.Is(err, ErrAlreadyRedeemed):
		default:
			t.Errorf("racer %d: unexpected error %v", i, err)
		}
	}
	if wins != 1 {
		t.Fatalf("serial redeemed %d times, want exactly 1", wins)
	}
}

func TestConcurrentRegisterBurnsNonceOnce(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	g := w.prov.Group()
	nonce, err := w.prov.Challenge(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Every racer holds a VALID proof over the same nonce; only one may
	// consume it.
	const racers = 16
	type attempt struct {
		signPub, encPub []byte
		proof           *schnorr.Proof
	}
	attempts := make([]attempt, racers)
	for i := range attempts {
		card, err := smartcard.NewRandom(schnorr.Group768())
		if err != nil {
			t.Fatal(err)
		}
		ps, _ := card.Pseudonym(0)
		proof, err := card.Prove(0, RegisterContext(nonce))
		if err != nil {
			t.Fatal(err)
		}
		attempts[i] = attempt{ps.SignPublic(g), ps.EncPublic(g), proof}
	}

	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := range attempts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := attempts[i]
			errs[i] = w.prov.Register(ctx, a.signPub, a.encPub, a.proof, nonce)
		}(i)
	}
	wg.Wait()

	wins := 0
	for i, err := range errs {
		switch {
		case err == nil:
			wins++
		case errors.Is(err, ErrBadNonce):
		default:
			t.Errorf("racer %d: unexpected error %v", i, err)
		}
	}
	if wins != 1 {
		t.Fatalf("nonce consumed %d times, want exactly 1", wins)
	}
}

func TestConcurrentAddContentAndCatalogReads(t *testing.T) {
	w := newWorld(t)
	const writers, readers, perWriter = 4, 4, 8

	var wg, writerWg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		writerWg.Add(1)
		go func(wi int) {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				id := license.ContentID(fmt.Sprintf("cc-%d-%d", wi, i))
				if _, err := w.prov.AddContent(id, string(id), 1, defaultTemplate, []byte("payload")); err != nil {
					t.Errorf("AddContent %s: %v", id, err)
					return
				}
			}
		}(wi)
	}
	done := make(chan struct{})
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, item := range w.prov.Catalog() {
					if _, err := w.prov.Item(item.ID); err != nil {
						t.Errorf("Item(%s) during writes: %v", item.ID, err)
						return
					}
					if _, _, err := w.prov.DenomPublic(item.ID); err != nil {
						t.Errorf("DenomPublic(%s) during writes: %v", item.ID, err)
						return
					}
				}
			}
		}()
	}
	// Release the readers once every writer has finished.
	go func() {
		writerWg.Wait()
		close(done)
	}()
	wg.Wait()

	if got := len(w.prov.Catalog()); got != 1+writers*perWriter {
		t.Fatalf("catalog size = %d, want %d", got, 1+writers*perWriter)
	}
}

func TestIssueBatch(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	signPub, encPub := w.register(t, 0)

	const n = 8
	reqs := make([]PurchaseRequest, n)
	for i := range reqs {
		coins, err := w.bank.WithdrawCoins("alice", int(w.item.PriceCredits))
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = PurchaseRequest{ContentID: w.item.ID, SignPub: signPub, EncPub: encPub, Coins: coins}
	}
	// One request with short payment must fail without harming the rest.
	reqs[3].Coins = reqs[3].Coins[:1]

	results := w.prov.IssueBatch(ctx, reqs)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, res := range results {
		if i == 3 {
			if !errors.Is(res.Err, ErrWrongPayment) {
				t.Errorf("short-paid request: err = %v, want ErrWrongPayment", res.Err)
			}
			continue
		}
		if res.Err != nil {
			t.Errorf("request %d: %v", i, res.Err)
			continue
		}
		if err := license.VerifyPersonalized(w.prov.Public(), res.License); err != nil {
			t.Errorf("request %d: invalid license: %v", i, err)
		}
	}

	// A cancelled context fails the whole batch fast.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i, res := range w.prov.IssueBatch(cancelled, reqs[:2]) {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("cancelled batch result %d: err = %v, want context.Canceled", i, res.Err)
		}
	}
}

func TestContextCancellationRejected(t *testing.T) {
	w := newWorld(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.prov.Challenge(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("Challenge: %v", err)
	}
	if _, err := w.prov.Purchase(cancelled, PurchaseRequest{ContentID: w.item.ID}); !errors.Is(err, context.Canceled) {
		t.Errorf("Purchase: %v", err)
	}
	if err := w.prov.Register(cancelled, nil, nil, nil, "x"); !errors.Is(err, context.Canceled) {
		t.Errorf("Register: %v", err)
	}
	if _, err := w.prov.Exchange(cancelled, nil, nil, "x", nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Exchange: %v", err)
	}
	if _, err := w.prov.Redeem(cancelled, nil, nil, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Redeem: %v", err)
	}
}

func TestConcurrentExchangeSingleWinner(t *testing.T) {
	w := newWorld(t)
	lic := w.buy(t, 0)
	ctx := context.Background()
	denomPub, denomID, err := w.prov.DenomPublic(lic.ContentID)
	if err != nil {
		t.Fatal(err)
	}

	// Each racer presents the SAME live license with its own valid
	// nonce, proof and blinded serial; only one may get a signature.
	const racers = 8
	type attempt struct {
		nonce   string
		proof   *schnorr.Proof
		blinded []byte
	}
	attempts := make([]attempt, racers)
	for i := range attempts {
		serial, err := license.NewSerial()
		if err != nil {
			t.Fatal(err)
		}
		blinded, _, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		nonce, err := w.prov.Challenge(ctx)
		if err != nil {
			t.Fatal(err)
		}
		proof, err := w.card.Prove(0, ExchangeContext(nonce, lic.Serial))
		if err != nil {
			t.Fatal(err)
		}
		attempts[i] = attempt{nonce, proof, blinded}
	}

	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := range attempts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := attempts[i]
			_, errs[i] = w.prov.Exchange(ctx, lic, a.proof, a.nonce, a.blinded)
		}(i)
	}
	wg.Wait()

	wins := 0
	for i, err := range errs {
		switch {
		case err == nil:
			wins++
		case errors.Is(err, ErrLicenseRevoked):
		default:
			t.Errorf("racer %d: unexpected error %v", i, err)
		}
	}
	if wins != 1 {
		t.Fatalf("license exchanged %d times, want exactly 1", wins)
	}
}

// exchangeAttempt builds a valid (nonce, proof, blinded) triple for
// exchanging lic held by pseudonym holderIdx.
func exchangeAttempt(t *testing.T, w *world, lic *license.Personalized, holderIdx uint32) ExchangeItem {
	t.Helper()
	ctx := context.Background()
	denomPub, denomID, err := w.prov.DenomPublic(lic.ContentID)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := license.NewSerial()
	if err != nil {
		t.Fatal(err)
	}
	blinded, _, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	nonce, err := w.prov.Challenge(ctx)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := w.card.Prove(holderIdx, ExchangeContext(nonce, lic.Serial))
	if err != nil {
		t.Fatal(err)
	}
	return ExchangeItem{License: lic, Proof: proof, Nonce: nonce, Blinded: blinded}
}

func TestExchangeBatch(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()

	const n = 4
	items := make([]ExchangeItem, n)
	for i := range items {
		items[i] = exchangeAttempt(t, w, w.buy(t, 0), 0)
	}
	// Slot 2 presents the same license as slot 1: exactly one of the two
	// may win, the rest of the batch is unaffected.
	items[2] = exchangeAttempt(t, w, items[1].License, 0)

	results := w.prov.ExchangeBatch(ctx, items)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	dupWins := 0
	for i, res := range results {
		if i == 1 || i == 2 {
			switch {
			case res.Err == nil:
				dupWins++
			case errors.Is(res.Err, ErrLicenseRevoked):
			default:
				t.Errorf("dup slot %d: unexpected error %v", i, res.Err)
			}
			continue
		}
		if res.Err != nil {
			t.Errorf("slot %d: %v", i, res.Err)
		} else if len(res.BlindSig) == 0 {
			t.Errorf("slot %d: empty blind signature", i)
		}
	}
	if dupWins != 1 {
		t.Fatalf("duplicate license exchanged %d times in one batch, want exactly 1", dupWins)
	}

	// A cancelled context fails the whole batch fast.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i, res := range w.prov.ExchangeBatch(cancelled, items[:2]) {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("cancelled batch result %d: err = %v, want context.Canceled", i, res.Err)
		}
	}
	if len(w.prov.ExchangeBatch(ctx, nil)) != 0 {
		t.Error("empty batch returned results")
	}
}

func TestRedeemBatch(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	g := w.prov.Group()

	const n = 3
	items := make([]RedeemItem, n+1)
	for i := 0; i < n; i++ {
		anon := anonFor(t, w, w.buy(t, 0), 0)
		card, err := smartcard.NewRandom(schnorr.Group768())
		if err != nil {
			t.Fatal(err)
		}
		ps, _ := card.Pseudonym(0)
		nonce, _ := w.prov.Challenge(ctx)
		proof, _ := card.Prove(0, RegisterContext(nonce))
		if err := w.prov.Register(ctx, ps.SignPublic(g), ps.EncPublic(g), proof, nonce); err != nil {
			t.Fatal(err)
		}
		items[i] = RedeemItem{Anonymous: anon, SignPub: ps.SignPublic(g), EncPub: ps.EncPublic(g)}
	}
	// Slot n replays slot 0's serial: the durable CAS must admit exactly
	// one of the two within the single batch.
	items[n] = RedeemItem{Anonymous: items[0].Anonymous, SignPub: items[1].SignPub, EncPub: items[1].EncPub}

	results := w.prov.RedeemBatch(ctx, items)
	if len(results) != n+1 {
		t.Fatalf("got %d results, want %d", len(results), n+1)
	}
	dupWins := 0
	for i, res := range results {
		if i == 0 || i == n {
			switch {
			case res.Err == nil:
				dupWins++
			case errors.Is(res.Err, ErrAlreadyRedeemed):
			default:
				t.Errorf("dup slot %d: unexpected error %v", i, res.Err)
			}
			continue
		}
		if res.Err != nil {
			t.Errorf("slot %d: %v", i, res.Err)
			continue
		}
		if err := license.VerifyPersonalized(w.prov.Public(), res.License); err != nil {
			t.Errorf("slot %d: invalid license: %v", i, err)
		}
	}
	if dupWins != 1 {
		t.Fatalf("duplicate serial redeemed %d times in one batch, want exactly 1", dupWins)
	}
}

// The journal is handed events one at a time in Seq order, with no gap,
// however many requests race to be journaled.
func TestJournalSeesEverySeqInOrder(t *testing.T) {
	w := newWorld(t)
	const buyers = 32
	reqs := make([]PurchaseRequest, buyers)
	for i := range reqs {
		signPub, encPub := w.register(t, uint32(i))
		coins, err := w.bank.WithdrawCoins("alice", int(w.item.PriceCredits))
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = PurchaseRequest{ContentID: w.item.ID, SignPub: signPub, EncPub: encPub, Coins: coins}
	}
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := w.prov.Purchase(context.Background(), reqs[i]); err != nil {
				t.Errorf("purchase %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	events := w.journal.Events()
	if len(events) != 2*buyers {
		t.Fatalf("journal holds %d events, want %d registrations and purchases", len(events), 2*buyers)
	}
	for i, e := range events {
		if e.Seq != i+1 {
			t.Fatalf("event %d handed over with Seq %d: the journal must see 1..n in order", i, e.Seq)
		}
		if e.At.IsZero() {
			t.Fatalf("event %d has no timestamp", e.Seq)
		}
	}
}
