package provider

// The parity suite: each protocol step called through its single entry
// point (Purchase, Exchange, Redeem) and as a batch of one (IssueBatch,
// ExchangeBatch, RedeemBatch) must refuse alike and, when it succeeds,
// leave the same records and journal events. A stale KeyID cannot be
// named through Exchange; httpapi's parity test holds that row at the
// route level, where both forms carry it.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/smartcard"
)

// newParityWorld is newWorld on one in-memory store that the bank's spent
// ledger shares with the provider, as p2drmd runs them, so every record a
// step writes is in the store it returns.
func newParityWorld(t *testing.T) (*world, *kvstore.Store) {
	t.Helper()
	pk, bk := testKeys()
	store, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	bank, err := payment.NewBank(bk, store)
	if err != nil {
		t.Fatal(err)
	}
	bank.CreateAccount("provider", 0)
	bank.CreateAccount("alice", 100)
	journal := &EventLog{}
	prov, err := New(Config{
		Group: schnorr.Group768(), SignerKey: pk, DenomKeyBits: 1024,
		Store: store, Bank: bank, BankAccount: "provider",
		Clock:   func() time.Time { return fixedNow },
		Journal: journal.Record,
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
	return &world{prov: prov, journal: journal, bank: bank, card: card, item: item}, store
}

// The two forms of a step.
var parityForms = []struct {
	name  string
	batch bool
}{{"single", false}, {"batch of one", true}}

func (w *world) purchaseAs(batch bool, req PurchaseRequest) (*license.Personalized, error) {
	if !batch {
		return w.prov.Purchase(context.Background(), req)
	}
	res := w.prov.IssueBatch(context.Background(), []PurchaseRequest{req})
	return res[0].License, res[0].Err
}

func (w *world) exchangeAs(batch bool, it ExchangeItem) ([]byte, error) {
	if !batch {
		return w.prov.Exchange(context.Background(), it.License, it.Proof, it.Nonce, it.Blinded)
	}
	res := w.prov.ExchangeBatch(context.Background(), []ExchangeItem{it})
	return res[0].BlindSig, res[0].Err
}

func (w *world) redeemAs(batch bool, it RedeemItem) (*license.Personalized, error) {
	if !batch {
		return w.prov.Redeem(context.Background(), it.Anonymous, it.SignPub, it.EncPub)
	}
	res := w.prov.RedeemBatch(context.Background(), []RedeemItem{it})
	return res[0].License, res[0].Err
}

// refusalClass names the sentinel an error matches under errors.Is, or
// its text when it matches none.
func refusalClass(err error) string {
	if err == nil {
		return "success"
	}
	for _, s := range []error{
		ErrUnknownContent, ErrUnknownPseudonym, ErrBadProof, ErrBadNonce, ErrWrongPayment,
		ErrLicenseRevoked, ErrAlreadyRedeemed, ErrUnknownDenom,
		payment.ErrDoubleSpend, rsablind.ErrStaleKey, rsablind.ErrVerification,
	} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	return err.Error()
}

// paidRequest is a fully paid purchase of the default item by pseudonym
// index, registered.
func (w *world) paidRequest(t *testing.T, index uint32) PurchaseRequest {
	t.Helper()
	signPub, encPub := w.register(t, index)
	return w.purchaseRequests(t, signPub, encPub, 1)[0]
}

// freshAnonymous buys a license for pseudonym index and exchanges it: an
// anonymous license nobody has redeemed.
func (w *world) freshAnonymous(t *testing.T, index uint32) *license.Anonymous {
	t.Helper()
	return anonFor(t, w, w.buy(t, index), index)
}

func TestSingleAndBatchOfOneRefuseAlike(t *testing.T) {
	for _, tc := range []struct {
		step, name string
		want       error  // the sentinel, or nil when the class is text
		wantText   string // the class when want is nil
		try        func(t *testing.T, w *world, batch bool) error
	}{
		{step: "purchase", name: "unknown content", want: ErrUnknownContent,
			try: func(t *testing.T, w *world, batch bool) error {
				req := w.paidRequest(t, 0)
				req.ContentID = "no-such-item"
				_, err := w.purchaseAs(batch, req)
				return err
			}},
		{step: "purchase", name: "unknown pseudonym", want: ErrUnknownPseudonym,
			try: func(t *testing.T, w *world, batch bool) error {
				ps, err := w.card.Pseudonym(9)
				if err != nil {
					t.Fatal(err)
				}
				g := w.prov.Group()
				req := w.purchaseRequests(t, ps.SignPublic(g), ps.EncPublic(g), 1)[0]
				_, err = w.purchaseAs(batch, req)
				return err
			}},
		{step: "purchase", name: "wrong coin count", want: ErrWrongPayment,
			try: func(t *testing.T, w *world, batch bool) error {
				req := w.paidRequest(t, 0)
				req.Coins = req.Coins[:1]
				_, err := w.purchaseAs(batch, req)
				return err
			}},
		{step: "purchase", name: "double-spent coin", want: payment.ErrDoubleSpend,
			try: func(t *testing.T, w *world, batch bool) error {
				req := w.paidRequest(t, 0)
				w.bank.CreateAccount("other-shop", 0)
				if err := w.bank.Deposit("other-shop", req.Coins[1]); err != nil {
					t.Fatal(err)
				}
				_, err := w.purchaseAs(batch, req)
				return err
			}},
		{step: "exchange", name: "reused nonce", want: ErrBadNonce,
			try: func(t *testing.T, w *world, batch bool) error {
				it := w.exchangeItem(t, w.buy(t, 0), 0)
				if err := w.prov.consumeNonce(it.Nonce); err != nil {
					t.Fatal(err)
				}
				_, err := w.exchangeAs(batch, it)
				return err
			}},
		{step: "exchange", name: "licence not on record", wantText: "provider: license not on issuance record",
			try: func(t *testing.T, w *world, batch bool) error {
				// Signed under the same provider key, issued by another store.
				elsewhere, _ := newParityWorld(t)
				elsewhere.card = w.card
				_, err := w.exchangeAs(batch, w.exchangeItem(t, elsewhere.buy(t, 0), 0))
				return err
			}},
		{step: "exchange", name: "revoked licence", want: ErrLicenseRevoked,
			try: func(t *testing.T, w *world, batch bool) error {
				lic := w.buy(t, 0)
				if _, err := w.exchangeAs(batch, w.exchangeItem(t, lic, 0)); err != nil {
					t.Fatal(err)
				}
				_, err := w.exchangeAs(batch, w.exchangeItem(t, lic, 0))
				return err
			}},
		{step: "exchange", name: "bad proof", want: ErrBadProof,
			try: func(t *testing.T, w *world, batch bool) error {
				it := w.exchangeItem(t, w.buy(t, 0), 0)
				proof, err := w.card.Prove(5, ExchangeContext(it.Nonce, it.License.Serial))
				if err != nil {
					t.Fatal(err)
				}
				it.Proof = proof
				_, err = w.exchangeAs(batch, it)
				return err
			}},
		{step: "redeem", name: "bad signature", want: rsablind.ErrVerification,
			try: func(t *testing.T, w *world, batch bool) error {
				anon := w.freshAnonymous(t, 0)
				anon.Sig[len(anon.Sig)-1] ^= 1
				signPub, encPub := w.register(t, 1)
				_, err := w.redeemAs(batch, RedeemItem{Anonymous: anon, SignPub: signPub, EncPub: encPub})
				return err
			}},
		{step: "redeem", name: "unknown denomination", want: ErrUnknownDenom,
			try: func(t *testing.T, w *world, batch bool) error {
				anon := w.freshAnonymous(t, 0)
				anon.Denom[0] ^= 0xFF
				signPub, encPub := w.register(t, 1)
				_, err := w.redeemAs(batch, RedeemItem{Anonymous: anon, SignPub: signPub, EncPub: encPub})
				return err
			}},
		{step: "redeem", name: "unknown pseudonym", want: ErrUnknownPseudonym,
			try: func(t *testing.T, w *world, batch bool) error {
				anon := w.freshAnonymous(t, 0)
				ps, err := w.card.Pseudonym(9)
				if err != nil {
					t.Fatal(err)
				}
				g := w.prov.Group()
				_, err = w.redeemAs(batch, RedeemItem{Anonymous: anon, SignPub: ps.SignPublic(g), EncPub: ps.EncPublic(g)})
				return err
			}},
		{step: "redeem", name: "second redeem", want: ErrAlreadyRedeemed,
			try: func(t *testing.T, w *world, batch bool) error {
				it := RedeemItem{Anonymous: w.freshAnonymous(t, 0)}
				it.SignPub, it.EncPub = w.register(t, 1)
				if _, err := w.redeemAs(batch, it); err != nil {
					t.Fatal(err)
				}
				_, err := w.redeemAs(batch, it)
				return err
			}},
	} {
		t.Run(tc.step+"/"+tc.name, func(t *testing.T) {
			want := tc.wantText
			if tc.want != nil {
				want = tc.want.Error()
			}
			w, _ := newParityWorld(t)
			for _, f := range parityForms {
				if got := refusalClass(tc.try(t, w, f.batch)); got != want {
					t.Errorf("%s: refused as %q, want %q", f.name, got, want)
				}
			}
		})
	}
}

// stepTrace is what one successful step left behind, with the identifiers
// it was given or made (serials, coins, the pseudonym's fingerprint, the
// blinded blob) replaced by their role, so two calls can be compared.
type stepTrace struct {
	records []string // changed or new store records, "key = value", sorted
	events  []string // journal events in order, Seq and At left out
}

// traceStep runs step and reports what it wrote and journaled. It takes
// the store's records before and after, and names each identifier through
// roles.
func (w *world) traceStep(st *kvstore.Store, step func() (roles map[string]string)) stepTrace {
	before := make(map[string]string)
	st.ForEach(func(k, v []byte) bool { before[string(k)] = string(v); return true })
	seen := len(w.journal.Events())
	roles := step()
	role := func(s string) string {
		if s == "" {
			return ""
		}
		if r, ok := roles[s]; ok {
			return r
		}
		return fmt.Sprintf("<%d unnamed bytes>", len(s))
	}
	var tr stepTrace
	st.ForEach(func(k, v []byte) bool {
		if old, ok := before[string(k)]; ok && old == string(v) {
			return true
		}
		key := string(k)
		prefix, rest := "", key
		for i := range key {
			if key[i] == ':' {
				prefix, rest = key[:i+1], key[i+1:]
				break
			}
		}
		tr.records = append(tr.records, prefix+role(rest)+" = "+role(string(v)))
		return true
	})
	sort.Strings(tr.records)
	for _, e := range w.journal.Events()[seen:] {
		tr.events = append(tr.events, fmt.Sprintf("%s pseudonym=%s content=%s serial=%s anon=%s blinded=%s",
			e.Type, role(e.PseudonymFP), e.ContentID, role(e.Serial), role(e.AnonSerial), role(e.BlindedHash)))
	}
	return tr
}

// serialRoles names a serial in both of the forms records and events carry
// it in.
func serialRoles(roles map[string]string, s license.Serial, role string) {
	roles[s.String()] = role
	roles[string(s[:])] = role
}

func TestSingleAndBatchOfOneSucceedAlike(t *testing.T) {
	for _, tc := range []struct {
		step string
		// prepare sets the step up and returns the call to trace.
		prepare func(t *testing.T, w *world, batch bool) func() map[string]string
	}{
		{"purchase", func(t *testing.T, w *world, batch bool) func() map[string]string {
			req := w.paidRequest(t, 0)
			return func() map[string]string {
				lic, err := w.purchaseAs(batch, req)
				if err != nil {
					t.Fatal(err)
				}
				roles := map[string]string{
					w.prov.fingerprint(req.SignPub): "<holder>",
					string(lic.Marshal()):           "<licence bytes>",
				}
				serialRoles(roles, lic.Serial, "<licence>")
				for _, c := range req.Coins {
					roles[string(c.Serial[:])] = "<coin>"
				}
				return roles
			}
		}},
		{"exchange", func(t *testing.T, w *world, batch bool) func() map[string]string {
			it := w.exchangeItem(t, w.buy(t, 0), 0)
			return func() map[string]string {
				if _, err := w.exchangeAs(batch, it); err != nil {
					t.Fatal(err)
				}
				roles := map[string]string{BlindedHashForTest(it.Blinded): "<blinded>"}
				serialRoles(roles, it.License.Serial, "<retired licence>")
				return roles
			}
		}},
		{"redeem", func(t *testing.T, w *world, batch bool) func() map[string]string {
			it := RedeemItem{Anonymous: w.freshAnonymous(t, 0)}
			it.SignPub, it.EncPub = w.register(t, 1)
			return func() map[string]string {
				lic, err := w.redeemAs(batch, it)
				if err != nil {
					t.Fatal(err)
				}
				roles := map[string]string{
					w.prov.fingerprint(it.SignPub): "<holder>",
					string(lic.Marshal()):          "<licence bytes>",
				}
				serialRoles(roles, lic.Serial, "<licence>")
				serialRoles(roles, it.Anonymous.Serial, "<anonymous serial>")
				return roles
			}
		}},
	} {
		t.Run(tc.step, func(t *testing.T) {
			w, st := newParityWorld(t)
			var traces []stepTrace
			for _, f := range parityForms {
				traces = append(traces, w.traceStep(st, tc.prepare(t, w, f.batch)))
			}
			single, batch := traces[0], traces[1]
			if len(single.records) == 0 || len(single.events) != 1 {
				t.Fatalf("single: %d records and %d events; the step wrote nothing", len(single.records), len(single.events))
			}
			if fmt.Sprint(single.records) != fmt.Sprint(batch.records) {
				t.Errorf("records differ:\n single:       %q\n batch of one: %q", single.records, batch.records)
			}
			if fmt.Sprint(single.events) != fmt.Sprint(batch.events) {
				t.Errorf("journal differs:\n single:       %q\n batch of one: %q", single.events, batch.events)
			}
		})
	}
}

// A single request is not queued behind batches: with every batch worker
// slot taken, Purchase, Exchange and Redeem still complete.
func TestSinglesNeedNoBatchSlot(t *testing.T) {
	w, _ := newParityWorld(t)
	req := w.paidRequest(t, 0)
	ex := w.exchangeItem(t, w.buy(t, 1), 1)
	red := RedeemItem{Anonymous: w.freshAnonymous(t, 2)}
	red.SignPub, red.EncPub = w.register(t, 3)

	for i := 0; i < cap(w.prov.batchSlots); i++ {
		w.prov.batchSlots <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(w.prov.batchSlots); i++ {
			<-w.prov.batchSlots
		}
	}()
	done := make(chan error, 1)
	go func() {
		if _, err := w.purchaseAs(false, req); err != nil {
			done <- fmt.Errorf("purchase: %w", err)
			return
		}
		if _, err := w.exchangeAs(false, ex); err != nil {
			done <- fmt.Errorf("exchange: %w", err)
			return
		}
		_, err := w.redeemAs(false, red)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a single request waited for a batch worker slot")
	}
}
