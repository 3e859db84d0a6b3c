package httpapi

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
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
	"p2drm/internal/replica"
	"p2drm/internal/revocation"
	"p2drm/internal/smartcard"
)

var (
	keysOnce sync.Once
	provKey  *rsa.PrivateKey
	bankKey  *rsa.PrivateKey
)

func keys() (*rsa.PrivateKey, *rsa.PrivateKey) {
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

type harness struct {
	srv    *httptest.Server
	client *Client
	prov   *provider.Provider
	bank   *payment.Bank
	card   *smartcard.Card
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	pk, bk := keys()
	spent, _ := kvstore.Open("")
	bank, err := payment.NewBank(bk, spent)
	if err != nil {
		t.Fatal(err)
	}
	bank.CreateAccount("provider", 0)
	bank.CreateAccount("alice", 50)
	store, _ := kvstore.Open("")
	prov, err := provider.New(provider.Config{
		Group: schnorr.Group768(), SignerKey: pk, DenomKeyBits: 1024,
		Store: store, Bank: bank, BankAccount: "provider",
		Clock: func() time.Time { return time.Date(2004, 11, 1, 0, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	template := rel.MustParse("grant play count 10; grant transfer;")
	if _, err := prov.AddContent("song-1", "Song", 1, template, []byte("audio-blob")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(prov))
	t.Cleanup(srv.Close)
	card, _ := smartcard.NewRandom(schnorr.Group768())
	return &harness{
		srv:    srv,
		client: NewClient(srv.URL, schnorr.Group768()),
		prov:   prov,
		bank:   bank,
		card:   card,
	}
}

// registerOverHTTP runs registration through the client SDK.
func (h *harness) registerOverHTTP(t *testing.T, index uint32) (signPub, encPub []byte) {
	t.Helper()
	return registerCardOverHTTP(t, h.client, h.card, index)
}

func TestCatalogAndContent(t *testing.T) {
	h := newHarness(t)
	items, err := h.client.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].ID != "song-1" || items[0].PriceCredits != 1 {
		t.Errorf("catalog = %+v", items)
	}
	if !strings.Contains(items[0].Rights, "grant play count 10") {
		t.Errorf("rights text = %q", items[0].Rights)
	}
	blob, err := h.client.Content("song-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Error("empty content blob")
	}
	// A refused download carries the server's reason, not a bare status.
	_, err = h.client.Content("missing")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Kind != "not-found" || !strings.Contains(err.Error(), provider.ErrUnknownContent.Error()) {
		t.Errorf("missing content: err = %v, want not-found with the provider's message", err)
	}
}

// TestContentIDQueryEscaping: a content ID made of query metacharacters
// reaches the server intact through every SDK call that carries it in
// the query string.
func TestContentIDQueryEscaping(t *testing.T) {
	h := newHarness(t)
	const id = "a&b c#1"
	template := rel.MustParse("grant play count 1;")
	if _, err := h.prov.AddContent(id, "Odd", 1, template, []byte("odd-blob")); err != nil {
		t.Fatal(err)
	}
	items, err := h.client.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	listed := false
	for _, it := range items {
		listed = listed || it.ID == id
	}
	if !listed {
		t.Fatalf("catalog %+v does not list %q", items, id)
	}
	_, wantDenom, err := h.prov.DenomPublic(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, denom, err := h.client.Denomination(id); err != nil || denom != wantDenom {
		t.Errorf("Denomination(%q) = %v, %v; want %v", id, denom, err, wantDenom)
	}
	want, err := h.prov.Item(id)
	if err != nil {
		t.Fatal(err)
	}
	if blob, err := h.client.Content(id); err != nil || !bytes.Equal(blob, want.Encrypted) {
		t.Errorf("Content(%q) = %d bytes, %v; want the item's %d-byte blob", id, len(blob), err, len(want.Encrypted))
	}
}

func TestPurchaseOverHTTP(t *testing.T) {
	h := newHarness(t)
	signPub, encPub := h.registerOverHTTP(t, 0)
	coins, _ := h.bank.WithdrawCoins("alice", 1)
	lic, err := h.client.Purchase("song-1", signPub, encPub, coins)
	if err != nil {
		t.Fatal(err)
	}
	if err := license.VerifyPersonalized(h.prov.Public(), lic); err != nil {
		t.Fatalf("license from wire invalid: %v", err)
	}
	// Card can unwrap: the wire roundtrip preserved the key wrap.
	if _, err := h.card.UnwrapContentKey(0, lic.KeyWrap,
		license.WrapLabelPersonalized(lic.Serial, lic.ContentID)); err != nil {
		t.Errorf("unwrap after wire roundtrip: %v", err)
	}
}

func TestFullTransferOverHTTP(t *testing.T) {
	h := newHarness(t)
	g := schnorr.Group768()
	signPub, encPub := h.registerOverHTTP(t, 0)
	coins, _ := h.bank.WithdrawCoins("alice", 1)
	lic, err := h.client.Purchase("song-1", signPub, encPub, coins)
	if err != nil {
		t.Fatal(err)
	}

	// A filter downloaded before the exchange: the artefact it caches must
	// not outlive the revocation below.
	if _, err := h.client.RevocationFilter(); err != nil {
		t.Fatal(err)
	}

	// Exchange via HTTP.
	denomPub, denomID, err := h.client.Denomination("song-1")
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := license.NewSerial()
	msg := license.AnonymousSigningBytes(serial, denomID)
	blinded, st, err := rsablind.Blind(denomPub, msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := h.client.Challenge()
	proof, _ := h.card.Prove(0, provider.ExchangeContext(nonce, lic.Serial))
	blindSig, err := h.client.Exchange(lic, proof, nonce, blinded)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := rsablind.Unblind(denomPub, st, blindSig)
	if err != nil {
		t.Fatal(err)
	}
	anon := &license.Anonymous{Serial: serial, Denom: denomID, Sig: sig}

	// Redeem under a new pseudonym (recipient side).
	bobCard, _ := smartcard.NewRandom(g)
	bp, _ := bobCard.Pseudonym(0)
	rn, _ := h.client.Challenge()
	rproof, _ := bobCard.Prove(0, provider.RegisterContext(rn))
	if err := h.client.Register(bp.SignPublic(g), bp.EncPublic(g), rproof, rn); err != nil {
		t.Fatal(err)
	}
	newLic, err := h.client.Redeem(anon, bp.SignPublic(g), bp.EncPublic(g))
	if err != nil {
		t.Fatal(err)
	}
	if err := license.VerifyPersonalized(h.prov.Public(), newLic); err != nil {
		t.Fatalf("redeemed license invalid: %v", err)
	}
	// Old one revoked; the very next filter over HTTP reflects it.
	sf, err := h.client.RevocationFilter()
	if err != nil {
		t.Fatal(err)
	}
	f, err := revocation.VerifyFilter(h.prov.Public(), sf)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Contains(lic.Serial[:]) {
		t.Error("wire filter missing revoked serial")
	}
	// The primary now answers the exact containment check directly (the
	// same SDK call a replica serves), so load-balanced clients can ask
	// either tier.
	if found, err := h.client.RevocationContains(lic.Serial); err != nil || !found {
		t.Errorf("primary RevocationContains(exchanged serial) = %v, %v; want true", found, err)
	}
	if found, err := h.client.RevocationContains(serial); err != nil || found {
		t.Errorf("primary RevocationContains(fresh serial) = %v, %v; want false", found, err)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	h := newHarness(t)
	cases := []struct {
		path, body string
	}{
		{"/v2/register", `{"sign_pub":"!!!","enc_pub":"","proof":"","nonce":"x"}`},
		{"/v2/register", `not-json`},
		{"/v2/purchase", `{"content_id":"song-1","coins":["bad"]}`},
		{"/v2/exchange", `{"license":"AA==","proof":"AA==","blinded":"AA=="}`},
		{"/v2/redeem", `{"anonymous":"AA==","sign_pub":"","enc_pub":""}`},
	}
	for _, tc := range cases {
		resp, err := h.srv.Client().Post(h.srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Errorf("POST %s with %q returned 200", tc.path, tc.body)
		}
	}
}

func TestClientErrorSurfacing(t *testing.T) {
	h := newHarness(t)
	// Unregistered pseudonym purchase: the server error must reach the
	// client as text.
	g := schnorr.Group768()
	ps, _ := h.card.Pseudonym(7)
	coins, _ := h.bank.WithdrawCoins("alice", 1)
	_, err := h.client.Purchase("song-1", ps.SignPublic(g), ps.EncPublic(g), coins)
	if err == nil || !strings.Contains(err.Error(), "pseudonym") {
		t.Errorf("err = %v, want pseudonym error from server", err)
	}
}

func TestCoinCodec(t *testing.T) {
	var c payment.Coin
	copy(c.Serial[:], bytes.Repeat([]byte{7}, payment.CoinSerialLen))
	c.Sig = []byte{1, 2, 3}
	back, err := decodeCoin(encodeCoin(&c))
	if err != nil {
		t.Fatal(err)
	}
	if back.Serial != c.Serial || !bytes.Equal(back.Sig, c.Sig) {
		t.Error("coin codec roundtrip mismatch")
	}
	if _, err := decodeCoin("x"); err == nil {
		t.Error("bad coin accepted")
	}
}

// TestExchangeAndRedeemBatchOverHTTP drives the full deposit-side batch
// pipeline through the SDK: buy 3 licenses, retire all three in one
// /v2/exchange/batch call (with one malformed slot), then redeem the
// resulting bearer tokens in one /v2/redeem/batch call (with one replayed
// serial). Per-slot errors must not disturb the healthy slots.
func TestExchangeAndRedeemBatchOverHTTP(t *testing.T) {
	h := newHarness(t)
	g := schnorr.Group768()
	signPub, encPub := h.registerOverHTTP(t, 0)
	denomPub, denomID, err := h.client.Denomination("song-1")
	if err != nil {
		t.Fatal(err)
	}

	const n = 3
	exchanges := make([]BatchExchange, n)
	serials := make([]license.Serial, n)
	states := make([]*rsablind.State, n)
	for i := 0; i < n; i++ {
		coins, err := h.bank.WithdrawCoins("alice", 1)
		if err != nil {
			t.Fatal(err)
		}
		lic, err := h.client.Purchase("song-1", signPub, encPub, coins)
		if err != nil {
			t.Fatal(err)
		}
		serial, _ := license.NewSerial()
		blinded, st, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		nonce, err := h.client.Challenge()
		if err != nil {
			t.Fatal(err)
		}
		proof, err := h.card.Prove(0, provider.ExchangeContext(nonce, lic.Serial))
		if err != nil {
			t.Fatal(err)
		}
		exchanges[i] = BatchExchange{License: lic, Proof: proof, Nonce: nonce, Blinded: blinded}
		serials[i], states[i] = serial, st
	}
	// Poison slot 1's nonce: its failure must be slot-local.
	exchanges[1].Nonce = "bogus"

	sigs, errs, err := h.client.ExchangeBatch(exchanges)
	if err != nil {
		t.Fatal(err)
	}
	anons := make([]*license.Anonymous, 0, n)
	for i := 0; i < n; i++ {
		if i == 1 {
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "nonce") {
				t.Errorf("poisoned slot: err = %v, want nonce error", errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("slot %d: %v", i, errs[i])
		}
		sig, err := rsablind.Unblind(denomPub, states[i], sigs[i])
		if err != nil {
			t.Fatal(err)
		}
		anons = append(anons, &license.Anonymous{Serial: serials[i], Denom: denomID, Sig: sig})
	}

	// Redeem both bearer tokens plus a replay of the first in one batch.
	bobCard, _ := smartcard.NewRandom(g)
	bp, _ := bobCard.Pseudonym(0)
	rn, _ := h.client.Challenge()
	rproof, _ := bobCard.Prove(0, provider.RegisterContext(rn))
	if err := h.client.Register(bp.SignPublic(g), bp.EncPublic(g), rproof, rn); err != nil {
		t.Fatal(err)
	}
	redeems := []BatchRedeem{
		{Anonymous: anons[0], SignPub: bp.SignPublic(g), EncPub: bp.EncPublic(g)},
		{Anonymous: anons[1], SignPub: bp.SignPublic(g), EncPub: bp.EncPublic(g)},
		{Anonymous: anons[0], SignPub: bp.SignPublic(g), EncPub: bp.EncPublic(g)},
	}
	lics, rerrs, err := h.client.RedeemBatch(redeems)
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for i := range lics {
		if rerrs[i] == nil {
			if err := license.VerifyPersonalized(h.prov.Public(), lics[i]); err != nil {
				t.Errorf("slot %d: invalid license: %v", i, err)
			}
			if i == 0 || i == 2 {
				wins++
			}
			continue
		}
		if i == 1 {
			t.Errorf("healthy slot 1 failed: %v", rerrs[i])
		} else if !strings.Contains(rerrs[i].Error(), "redeemed") {
			t.Errorf("slot %d: err = %v, want already-redeemed", i, rerrs[i])
		}
	}
	if wins != 1 {
		t.Errorf("replayed serial won %d slots, want exactly 1", wins)
	}
}

// TestBatchEndpointsRejectBadSizes: malformed, empty and oversized
// batches are call-level 400s on all three batch endpoints.
func TestBatchEndpointsRejectBadSizes(t *testing.T) {
	h := newHarness(t)
	for _, tc := range []struct{ path, field string }{
		{"/v2/purchase/batch", "purchases"},
		{"/v2/exchange/batch", "exchanges"},
		{"/v2/redeem/batch", "redeems"},
	} {
		for name, body := range map[string]string{
			"malformed": `{"` + tc.field + `":[`,
			"empty":     `{"` + tc.field + `":[]}`,
			"257 slots": `{"` + tc.field + `":[` + strings.Repeat("{},", maxBatchItems) + `{}]}`,
		} {
			if status, env := rawV2(t, h.srv.URL, "POST", tc.path, "", body); status != 400 || errKind(t, env) != "bad-request" {
				t.Errorf("POST %s %s batch: status %d, want 400 bad-request", tc.path, name, status)
			}
		}
	}
	// One malformed slot inside a healthy batch is a 200 sync envelope
	// with a per-slot error, never a call failure.
	body := `{"exchanges":[{"license":"!!!","proof":"AA==","nonce":"x","blinded":"AA=="}]}`
	status, env := rawV2(t, h.srv.URL, "POST", "/v2/exchange/batch", "", body)
	if status != 200 || env.Type != "sync" {
		t.Fatalf("malformed slot: status %d type %q, want a 200 sync envelope", status, env.Type)
	}
	var out BatchExchangeResponse
	if err := json.Unmarshal(env.Result, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Error == "" {
		t.Errorf("want one per-slot error, got %+v", out.Results)
	}
}

// TestStatsEndpoint: GET /v2/stats reports the registered stores'
// kvstore engine statistics through the client SDK, and on both roles
// the body is that store snapshot alone.
func TestStatsEndpoint(t *testing.T) {
	pk, bk := keys()
	dir := t.TempDir()
	store, err := kvstore.OpenWith(dir, kvstore.Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	bank, err := payment.NewBank(bk, store)
	if err != nil {
		t.Fatal(err)
	}
	bank.CreateAccount("provider", 0)
	prov, err := provider.New(provider.Config{
		Group: schnorr.Group768(), SignerKey: pk, DenomKeyBits: 1024,
		Store: store, Bank: bank, BankAccount: "provider",
		Clock: func() time.Time { return time.Date(2004, 11, 1, 0, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(prov).WithStoreStats("provider", store))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, schnorr.Group768())

	if err := store.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Stores) != 1 {
		t.Fatalf("stats for %d stores, want 1", len(resp.Stores))
	}
	ps, ok := resp.Stores["provider"]
	if !ok {
		t.Fatal("provider store missing from stats")
	}
	if ps.Segments < 1 || ps.LiveKeys < 1 || ps.IndexShards != kvstore.DefaultIndexShards {
		t.Errorf("provider stats implausible: %+v", ps)
	}

	f, err := replica.Open(replica.Options{
		Fetch:        NewReplicaFetcher(client, "provider"),
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	rsrv := httptest.NewServer(NewReplicaServer(map[string]*replica.Follower{"provider": f}))
	t.Cleanup(rsrv.Close)
	for _, role := range []struct{ name, url string }{{"primary", srv.URL}, {"replica", rsrv.URL}} {
		code, env := rawV2(t, role.url, "GET", "/v2/stats", "", "")
		var body map[string]json.RawMessage
		if err := json.Unmarshal(env.Result, &body); code != 200 || err != nil {
			t.Fatalf("%s: /v2/stats = %d, %v: %s", role.name, code, err, env.Result)
		}
		if _, ok := body["crypto"]; ok {
			t.Errorf("%s: /v2/stats carries a crypto block: %s", role.name, env.Result)
		}
		var stores map[string]json.RawMessage
		if err := json.Unmarshal(body["stores"], &stores); err != nil || stores == nil {
			t.Fatalf("%s: /v2/stats has no stores map: %s", role.name, env.Result)
		}
		if _, ok := stores["provider"]; !ok {
			t.Errorf("%s: /v2/stats stores lack provider: %s", role.name, env.Result)
		}
	}
}

// TestRequestBodyBound: a body past maxRequestBody is refused with a
// typed 413 envelope before the handler buffers it, and the bound leaves
// a maximal legal batch — 256 slots, padded right up to the limit —
// untouched.
func TestRequestBodyBound(t *testing.T) {
	h := newHarness(t)
	signPub, encPub := h.registerOverHTTP(t, 0)
	denomPub, denomID, err := h.client.Denomination("song-1")
	if err != nil {
		t.Fatal(err)
	}
	coins, err := h.bank.WithdrawCoins("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	lic, err := h.client.Purchase("song-1", signPub, encPub, coins)
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := license.NewSerial()
	blinded, _, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	nonce, err := h.client.Challenge()
	if err != nil {
		t.Fatal(err)
	}
	proof, err := h.card.Prove(0, provider.ExchangeContext(nonce, lic.Serial))
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0 is a real exchange; the other 255 carry the same full-size
	// license and proof under a nonce the provider never issued.
	slot := ExchangeRequest{
		License: b64(lic.Marshal()), Proof: b64(proof.Bytes(schnorr.Group768())),
		Nonce: nonce, Blinded: b64(blinded),
	}
	req := BatchExchangeRequest{Exchanges: make([]ExchangeRequest, maxBatchItems)}
	for i := range req.Exchanges {
		req.Exchanges[i] = slot
		if i > 0 {
			req.Exchanges[i].Nonce = "never-issued"
		}
	}
	doc, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc) >= maxRequestBody {
		t.Fatalf("a %d-slot batch is %d bytes, past the %d-byte bound", maxBatchItems, len(doc), maxRequestBody)
	}
	// Leading whitespace is part of the body the decoder reads.
	pad := func(total int) string { return strings.Repeat(" ", total-len(doc)) + string(doc) }

	status, env := rawV2(t, h.srv.URL, "POST", "/v2/exchange/batch", "", pad(maxRequestBody))
	if status != 200 || env.Type != "sync" {
		t.Fatalf("batch at the bound: status %d type %q, want a 200 sync envelope", status, env.Type)
	}
	var out BatchExchangeResponse
	if err := json.Unmarshal(env.Result, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != maxBatchItems || out.Results[0].BlindSig == "" || out.Results[1].Error == "" {
		t.Errorf("batch at the bound: %d results, slot 0 %+v, slot 1 %+v", len(out.Results), out.Results[0], out.Results[1])
	}

	for _, path := range []string{"/v2/exchange/batch", "/v2/exchange", "/v2/register"} {
		status, env := rawV2(t, h.srv.URL, "POST", path, "", pad(maxRequestBody+1))
		if status != 413 || errKind(t, env) != "request-too-large" {
			t.Errorf("POST %s one byte past the bound: status %d, want 413 request-too-large", path, status)
		}
	}
}
