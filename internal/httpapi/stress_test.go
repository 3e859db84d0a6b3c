package httpapi

// Stress test for the concurrent serving path: one Server, 32 client
// goroutines, each running complete purchase → exchange → redeem flows
// over the wire. Run with -race; it exists to catch locking regressions
// in provider/httpapi, not to measure throughput.

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
	"p2drm/internal/smartcard"
)

func TestServerUnderConcurrentLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	pk, bk := keys()
	spent, _ := kvstore.Open("")
	bank, err := payment.NewBank(bk, spent)
	if err != nil {
		t.Fatal(err)
	}
	bank.CreateAccount("provider", 0)
	store, _ := kvstore.Open("")
	prov, err := provider.New(provider.Config{
		Group: schnorr.Group768(), SignerKey: pk, DenomKeyBits: 1024,
		Store: store, Bank: bank, BankAccount: "provider",
		Clock: time.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	template := rel.MustParse("grant play count 10; grant transfer;")
	if _, err := prov.AddContent("stress-song", "Stress", 1, template, []byte("audio")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(prov).WithBank(bank))
	defer srv.Close()

	const (
		workers        = 32
		flowsPerWorker = 2
	)
	g := schnorr.Group768()
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			client := NewClient(srv.URL, g)
			account := fmt.Sprintf("stress-%d", wi)
			if err := client.CreateAccount(account, 100); err != nil {
				t.Errorf("worker %d: create account: %v", wi, err)
				return
			}
			card, err := smartcard.NewRandom(g)
			if err != nil {
				t.Errorf("worker %d: card: %v", wi, err)
				return
			}
			for f := 0; f < flowsPerWorker; f++ {
				if err := runFlow(client, card, account, uint32(2*f)); err != nil {
					t.Errorf("worker %d flow %d: %v", wi, f, err)
					return
				}
			}
		}(wi)
	}
	wg.Wait()

	// Every flow issues two licenses (purchase + redeem) and revokes one.
	wantRevoked := workers * flowsPerWorker
	if got := prov.RevokedCount(); got != wantRevoked {
		t.Errorf("revoked count = %d, want %d", got, wantRevoked)
	}
	// The journal holds every purchase and both halves of every transfer.
	journaled := make(map[provider.EventType]int)
	for _, e := range prov.Events() {
		journaled[e.Type]++
	}
	for _, typ := range []provider.EventType{provider.EvPurchase, provider.EvExchange, provider.EvRedeem} {
		if journaled[typ] != wantRevoked {
			t.Errorf("journaled %v events = %d, want %d", typ, journaled[typ], wantRevoked)
		}
	}
}

// runFlow buys, exchanges and redeems one license entirely over HTTP,
// using pseudonym idx for the purchase and idx+1 for the redemption.
func runFlow(client *Client, card *smartcard.Card, account string, idx uint32) error {
	g := client.Group
	ps, err := card.Pseudonym(idx)
	if err != nil {
		return err
	}
	nonce, err := client.Challenge()
	if err != nil {
		return err
	}
	proof, err := card.Prove(idx, provider.RegisterContext(nonce))
	if err != nil {
		return err
	}
	if err := client.Register(ps.SignPublic(g), ps.EncPublic(g), proof, nonce); err != nil {
		return fmt.Errorf("register: %w", err)
	}
	coins, err := client.WithdrawCoins(account, 1)
	if err != nil {
		return fmt.Errorf("withdraw: %w", err)
	}
	lic, err := client.Purchase("stress-song", ps.SignPublic(g), ps.EncPublic(g), coins)
	if err != nil {
		return fmt.Errorf("purchase: %w", err)
	}

	denomPub, denomID, err := client.Denomination("stress-song")
	if err != nil {
		return err
	}
	serial, err := license.NewSerial()
	if err != nil {
		return err
	}
	blinded, st, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
	if err != nil {
		return err
	}
	xn, err := client.Challenge()
	if err != nil {
		return err
	}
	xproof, err := card.Prove(idx, provider.ExchangeContext(xn, lic.Serial))
	if err != nil {
		return err
	}
	blindSig, err := client.Exchange(lic, xproof, xn, blinded)
	if err != nil {
		return fmt.Errorf("exchange: %w", err)
	}
	sig, err := rsablind.Unblind(denomPub, st, blindSig)
	if err != nil {
		return err
	}
	anon := &license.Anonymous{Serial: serial, Denom: denomID, Sig: sig}

	rIdx := idx + 1
	rp, err := card.Pseudonym(rIdx)
	if err != nil {
		return err
	}
	rn, err := client.Challenge()
	if err != nil {
		return err
	}
	rproof, err := card.Prove(rIdx, provider.RegisterContext(rn))
	if err != nil {
		return err
	}
	if err := client.Register(rp.SignPublic(g), rp.EncPublic(g), rproof, rn); err != nil {
		return fmt.Errorf("register recipient: %w", err)
	}
	if _, err := client.Redeem(anon, rp.SignPublic(g), rp.EncPublic(g)); err != nil {
		return fmt.Errorf("redeem: %w", err)
	}
	return nil
}

func TestPurchaseBatchOverHTTP(t *testing.T) {
	h := newHarness(t)
	signPub, encPub := h.registerOverHTTP(t, 0)

	const n = 4
	items := make([]BatchPurchase, n)
	for i := range items {
		coins, err := h.bank.WithdrawCoins("alice", 1)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = BatchPurchase{ContentID: "song-1", SignPub: signPub, EncPub: encPub, Coins: coins}
	}
	// Unknown content in one slot must fail only that slot.
	items[2].ContentID = "missing"

	lics, errs, err := h.client.PurchaseBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i == 2 {
			if errs[i] == nil {
				t.Error("unknown-content slot succeeded")
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("slot %d: %v", i, errs[i])
			continue
		}
		if err := license.VerifyPersonalized(h.prov.Public(), lics[i]); err != nil {
			t.Errorf("slot %d: invalid license: %v", i, err)
		}
	}

	// Empty batches are rejected outright.
	if _, _, err := h.client.PurchaseBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}

	// A slot that fails wire decoding (bad base64, unreachable through
	// the typed SDK) must produce a per-slot error, not a call-level 400.
	body := `{"purchases":[{"content_id":"song-1","sign_pub":"!!!","enc_pub":"","coins":[]}]}`
	status, env := rawV2(t, h.srv.URL, "POST", "/v2/purchase/batch", "", body)
	if status != 200 || env.Type != "sync" {
		t.Fatalf("decode-error slot: status %d type %q, want a 200 sync envelope with a per-slot error", status, env.Type)
	}
	var br BatchPurchaseResponse
	if err := json.Unmarshal(env.Result, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 1 || br.Results[0].Error == "" {
		t.Errorf("decode-error slot: results = %+v, want one slot-level error", br.Results)
	}
}
