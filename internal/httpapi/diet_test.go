package httpapi

// The request diet, pinned: a withdrawal is one list request and all or
// nothing, the challenge is a public beacon the SDK makes nonces from,
// immutable keys are fetched once per Client — and a key id that went
// stale is refused before it can cost a credit, a nonce or a licence.

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/obs"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
)

// countingTransport counts a Client's requests by "METHOD /path".
type countingTransport struct {
	mu sync.Mutex
	n  map[string]int
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	if c.n == nil {
		c.n = make(map[string]int)
	}
	c.n[r.Method+" "+r.URL.Path]++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

// take returns the counts since the last take.
func (c *countingTransport) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = nil
	return n
}

func counted(c *Client) *countingTransport {
	ct := &countingTransport{}
	c.HTTP = &http.Client{Transport: ct}
	return ct
}

func wantRequests(t *testing.T, what string, got map[string]int, want map[string]int) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: requests %v, want %v", what, got, want)
	}
}

func balance(t *testing.T, b *payment.Bank, acct string) int64 {
	t.Helper()
	bal, err := b.Balance(acct)
	if err != nil {
		t.Fatal(err)
	}
	return bal
}

func TestWithdrawCoinsIsOneListRequest(t *testing.T) {
	h := newV2Harness(t, Auth{})
	reqs := counted(h.client)

	coins, err := h.client.WithdrawCoins("alice", 5)
	if err != nil || len(coins) != 5 {
		t.Fatalf("WithdrawCoins(5) = %d coins, %v", len(coins), err)
	}
	for i, c := range coins {
		if err := payment.VerifyCoin(h.bank.CoinPub(), c); err != nil {
			t.Errorf("coin %d: %v", i, err)
		}
	}
	if bal := balance(t, h.bank, "alice"); bal != 45 {
		t.Errorf("balance %d after 5 coins, want 45", bal)
	}
	wantRequests(t, "first withdrawal", reqs.take(), map[string]int{"GET /v2/bank/coinkey": 1, "POST /v2/bank/withdraw": 1})

	if _, err := h.client.WithdrawCoins("alice", 3); err != nil {
		t.Fatal(err)
	}
	wantRequests(t, "second withdrawal", reqs.take(), map[string]int{"POST /v2/bank/withdraw": 1})

	// Refused whole: more than the account holds, an unknown account.
	for _, acct := range []string{"alice", "ghost"} {
		coins, err := h.client.WithdrawCoins(acct, 43)
		var ae *APIError
		if len(coins) != 0 || !errors.As(err, &ae) || ae.Kind != "rejected" {
			t.Errorf("WithdrawCoins(%q, 43) = %d coins, %v; want a rejected call and no coins", acct, len(coins), err)
		}
	}
	if bal := balance(t, h.bank, "alice"); bal != 42 {
		t.Errorf("balance %d after refused withdrawals, want 42", bal)
	}
	if coins, err := h.client.WithdrawCoins("alice", 0); err != nil || len(coins) != 0 {
		t.Errorf("WithdrawCoins(0) = %d coins, %v", len(coins), err)
	}
	reqs.take()

	// More than one request may carry goes out as full lists.
	if err := h.bank.CreateAccount("whale", 2*maxBatchItems+10); err != nil {
		t.Fatal(err)
	}
	coins, err = h.client.WithdrawCoins("whale", maxBatchItems+7)
	if err != nil || len(coins) != maxBatchItems+7 {
		t.Fatalf("WithdrawCoins(%d) = %d coins, %v", maxBatchItems+7, len(coins), err)
	}
	wantRequests(t, "two-list withdrawal", reqs.take(), map[string]int{"POST /v2/bank/withdraw": 2})
	// The second list fails; the first list's coins are paid for and
	// come back with the error.
	coins, err = h.client.WithdrawCoins("whale", maxBatchItems+4)
	if err == nil || len(coins) != maxBatchItems {
		t.Errorf("second list refused: %d coins, %v; want the first list's %d and an error", len(coins), err, maxBatchItems)
	}
	if bal := balance(t, h.bank, "whale"); bal != 3 {
		t.Errorf("whale balance %d, want 3", bal)
	}
}

func TestWithdrawWireIsAListAndAllOrNothing(t *testing.T) {
	h := newV2Harness(t, Auth{})
	keyID := rsablind.KeyID(h.bank.CoinPub())
	_, blinded, err := payment.NewCoinRequests(h.bank.CoinPub(), 3, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	post := func(req any) (int, rawEnvelope) {
		body, _ := json.Marshal(req)
		return rawV2(t, h.srv.URL, "POST", "/v2/bank/withdraw", "", string(body))
	}
	list := func(bl ...[]byte) []string {
		out := make([]string, len(bl))
		for i, b := range bl {
			out[i] = b64(b)
		}
		return out
	}
	tooMany := make([]string, maxBatchItems+1)
	for i := range tooMany {
		tooMany[i] = b64(blinded[0])
	}
	for _, tc := range []struct {
		name   string
		req    any
		status int
		kind   string
	}{
		{"stale key id", WithdrawRequest{Account: "alice", KeyID: "0123456789abcdef", Blinded: list(blinded...)}, http.StatusForbidden, "stale-key"},
		{"no key id", WithdrawRequest{Account: "alice", Blinded: list(blinded...)}, http.StatusForbidden, "stale-key"},
		{"empty list", WithdrawRequest{Account: "alice", KeyID: keyID}, http.StatusBadRequest, "bad-request"},
		{"list over the bound", WithdrawRequest{Account: "alice", KeyID: keyID, Blinded: tooMany}, http.StatusBadRequest, "bad-request"},
		{"bad base64 entry", WithdrawRequest{Account: "alice", KeyID: keyID, Blinded: []string{b64(blinded[0]), "!!"}}, http.StatusBadRequest, "bad-request"},
		{"malformed blinded entry", WithdrawRequest{Account: "alice", KeyID: keyID, Blinded: list(blinded[0], []byte{0}, blinded[1])}, http.StatusForbidden, "rejected"},
		{"the retired one-coin shape", map[string]string{"account": "alice", "blinded": b64(blinded[0])}, http.StatusBadRequest, "bad-request"},
	} {
		status, env := post(tc.req)
		if status != tc.status || errKind(t, env) != tc.kind {
			t.Errorf("%s: status %d kind %q, want %d %q", tc.name, status, errKind(t, env), tc.status, tc.kind)
		}
	}
	if bal, signed := balance(t, h.bank, "alice"), h.bank.CoinsWithdrawn(); bal != 50 || signed != 0 {
		t.Errorf("refused lists left balance %d and %d coins signed, want 50 and 0", bal, signed)
	}

	status, env := post(WithdrawRequest{Account: "alice", KeyID: keyID, Blinded: list(blinded...)})
	var resp WithdrawResponse
	if status != http.StatusOK || json.Unmarshal(env.Result, &resp) != nil || len(resp.BlindSigs) != 3 {
		t.Fatalf("well-formed list: status %d, result %s", status, env.Result)
	}
	if bal := balance(t, h.bank, "alice"); bal != 47 {
		t.Errorf("balance %d after a 3-coin list, want 47", bal)
	}
}

// TestStaleCoinKeyCostsNothing: a Client holding a coin key the bank no
// longer signs with is refused before the debit, fetches the key once and
// gets its coins.
func TestStaleCoinKeyCostsNothing(t *testing.T) {
	h := newV2Harness(t, Auth{})
	old, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	h.client.coinPub = &old.PublicKey
	reqs := counted(h.client)
	coins, err := h.client.WithdrawCoins("alice", 4)
	if err != nil || len(coins) != 4 {
		t.Fatalf("WithdrawCoins with a stale cached key = %d coins, %v", len(coins), err)
	}
	for i, c := range coins {
		if err := payment.VerifyCoin(h.bank.CoinPub(), c); err != nil {
			t.Errorf("coin %d: %v", i, err)
		}
	}
	wantRequests(t, "stale key", reqs.take(), map[string]int{"GET /v2/bank/coinkey": 1, "POST /v2/bank/withdraw": 2})
	if bal, signed := balance(t, h.bank, "alice"), h.bank.CoinsWithdrawn(); bal != 46 || signed != 4 {
		t.Errorf("balance %d with %d coins signed, want 46 and 4: the refused list must cost nothing", bal, signed)
	}
}

// TestShortSignatureListIsAnError: a server answering fewer (or more)
// signatures than coins asked for yields an error, never a short slice.
func TestShortSignatureListIsAnError(t *testing.T) {
	_, bk := keys()
	signer, err := rsablind.NewSigner(bk)
	if err != nil {
		t.Fatal(err)
	}
	for _, answer := range []int{1, 3} {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v2/bank/coinkey", func(w http.ResponseWriter, r *http.Request) {
			writeSync(w, map[string]any{"n": b64(bk.N.Bytes()), "e": bk.E})
		})
		mux.HandleFunc("POST /v2/bank/withdraw", func(w http.ResponseWriter, r *http.Request) {
			var req WithdrawRequest
			json.NewDecoder(r.Body).Decode(&req)
			var resp WithdrawResponse
			for i := 0; i < answer; i++ {
				bl, _ := unb64(req.Blinded[i%len(req.Blinded)])
				sig, _ := signer.SignBlinded(bl)
				resp.BlindSigs = append(resp.BlindSigs, b64(sig))
			}
			writeSync(w, resp)
		})
		srv := httptest.NewServer(mux)
		coins, err := NewClient(srv.URL, nil).WithdrawCoins("alice", 2)
		srv.Close()
		if err == nil || len(coins) != 0 {
			t.Errorf("server answered %d signatures for 2 coins: SDK returned %d coins, %v", answer, len(coins), err)
		}
	}
}

// TestChallengeIsAPublicBeacon: nothing per client is issued — two
// Clients get the same beacon — and a Client asks once per beacon however
// many nonces it hands out, every one of them single-use at the provider.
func TestChallengeIsAPublicBeacon(t *testing.T) {
	h := newV2Harness(t, Auth{})
	other := NewClient(h.srv.URL, h.client.Group)
	reqs := counted(h.client)

	seen := make(map[string]bool)
	for i := 0; i < 50; i++ {
		nonce, err := h.client.Challenge()
		if err != nil {
			t.Fatal(err)
		}
		if seen[nonce] {
			t.Fatalf("nonce %q handed out twice", nonce)
		}
		seen[nonce] = true
	}
	wantRequests(t, "50 challenges", reqs.take(), map[string]int{"GET /v2/challenge": 1})
	if _, err := other.Challenge(); err != nil {
		t.Fatal(err)
	}
	if h.client.beacon == "" || h.client.beacon != other.beacon {
		t.Errorf("two clients in one epoch hold beacons %q and %q, want one and the same", h.client.beacon, other.beacon)
	}
	for nonce := range seen {
		if !strings.HasPrefix(nonce, h.client.beacon) {
			t.Fatalf("nonce %q is not under the beacon %q", nonce, h.client.beacon)
		}
	}

	// Client-made nonces carry proofs like any other, once each.
	g := h.client.Group
	ps, _ := h.card.Pseudonym(0)
	nonce, _ := h.client.Challenge()
	proof, _ := h.card.Prove(0, provider.RegisterContext(nonce))
	if err := h.client.Register(ps.SignPublic(g), ps.EncPublic(g), proof, nonce); err != nil {
		t.Fatalf("register with a client-made nonce: %v", err)
	}
	reqs.take()
	// A refused nonce has its own kind, and tells the Client its beacon
	// may be dead (a restarted provider has a new MAC key): it asks again.
	if err := h.client.Register(ps.SignPublic(g), ps.EncPublic(g), proof, nonce); !hasKind(err, kindBadNonce) ||
		!strings.Contains(err.Error(), provider.ErrBadNonce.Error()) {
		t.Errorf("replayed nonce: %v, want a bad-nonce refusal carrying the provider's ErrBadNonce", err)
	}
	if _, err := h.client.Challenge(); err != nil {
		t.Fatal(err)
	}
	wantRequests(t, "challenge after a refused nonce", reqs.take(), map[string]int{"POST /v2/register": 1, "GET /v2/challenge": 1})

	// A beacon that is no longer known to be current is not used again.
	h.client.mu.Lock()
	h.client.beaconUntil = time.Now().Add(-time.Second)
	h.client.mu.Unlock()
	if _, err := h.client.Challenge(); err != nil {
		t.Fatal(err)
	}
	wantRequests(t, "challenge after the beacon's time", reqs.take(), map[string]int{"GET /v2/challenge": 1})

	// The wire: nonce under the beacon, and a lifetime inside one epoch.
	_, env := rawV2(t, h.srv.URL, "GET", "/v2/challenge", "", "")
	var cr ChallengeResponse
	if err := json.Unmarshal(env.Result, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Beacon == "" || !strings.HasPrefix(cr.Nonce, cr.Beacon) || len(cr.Nonce) != len(cr.Beacon)+32 ||
		cr.CurrentForMS <= 0 || cr.CurrentForMS > (150*time.Second).Milliseconds() {
		t.Errorf("challenge response %+v", cr)
	}
}

// TestChallengesLeaveNoServerState: the nonce store audit over HTTP.
func TestChallengesLeaveNoServerState(t *testing.T) {
	h := newV2Harness(t, Auth{})
	n := 100_000
	if testing.Short() {
		n = 5_000
	}
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		h.server.ServeHTTP(rec, httptest.NewRequest("GET", "/v2/challenge", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("challenge %d: status %d", i, rec.Code)
		}
	}
	if got := h.prov.ConsumedNonces(); got != 0 {
		t.Fatalf("%d challenges left %d nonces in the provider", n, got)
	}
	if v := scrapeValue(t, h.client, "p2drm_provider_nonces_consumed"); v != 0 {
		t.Errorf("p2drm_provider_nonces_consumed = %v, want 0", v)
	}
}

// scrapeValue reads one unlabelled sample from /v2/metrics.
func scrapeValue(t *testing.T, c *Client, name string) float64 {
	t.Helper()
	return scrapeLabelled(t, c, name, nil)
}

// scrapeLabelled reads the sample of name carrying exactly labels.
func scrapeLabelled(t *testing.T, c *Client, name string, labels map[string]string) float64 {
	t.Helper()
	raw, err := c.MetricsV2()
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ParseMetrics(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := m.Value(name, labels)
	if !ok {
		t.Fatalf("/v2/metrics has no %s%v", name, labels)
	}
	return v
}

func TestCoinAndNonceMetrics(t *testing.T) {
	h := newV2Harness(t, Auth{})
	if _, err := h.client.WithdrawCoins("alice", 7); err != nil {
		t.Fatal(err)
	}
	g := h.client.Group
	ps, _ := h.card.Pseudonym(0)
	nonce, _ := h.client.Challenge()
	proof, _ := h.card.Prove(0, provider.RegisterContext(nonce))
	if err := h.client.Register(ps.SignPublic(g), ps.EncPublic(g), proof, nonce); err != nil {
		t.Fatal(err)
	}
	if v := scrapeValue(t, h.client, "p2drm_bank_coins_withdrawn_total"); v != 7 {
		t.Errorf("p2drm_bank_coins_withdrawn_total = %v after one 7-coin list, want 7", v)
	}
	if v := scrapeValue(t, h.client, "p2drm_provider_nonces_consumed"); v != 1 {
		t.Errorf("p2drm_provider_nonces_consumed = %v after one registration, want 1", v)
	}
}

// exchangeOverHTTP buys song-1 for pseudonym 0 and prepares its exchange
// through the SDK, Denomination included.
func exchangeOverHTTP(t *testing.T, h *v2Harness) BatchExchange {
	t.Helper()
	g := h.client.Group
	ps, _ := h.card.Pseudonym(0)
	nonce, err := h.client.Challenge()
	if err != nil {
		t.Fatal(err)
	}
	proof, _ := h.card.Prove(0, provider.RegisterContext(nonce))
	if err := h.client.Register(ps.SignPublic(g), ps.EncPublic(g), proof, nonce); err != nil {
		t.Fatal(err)
	}
	coins, err := h.client.WithdrawCoins("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	lic, err := h.client.Purchase("song-1", ps.SignPublic(g), ps.EncPublic(g), coins)
	if err != nil {
		t.Fatal(err)
	}
	denomPub, denomID, err := h.client.Denomination("song-1")
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := license.NewSerial()
	blinded, _, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if nonce, err = h.client.Challenge(); err != nil {
		t.Fatal(err)
	}
	proof, _ = h.card.Prove(0, provider.ExchangeContext(nonce, lic.Serial))
	return BatchExchange{License: lic, Proof: proof, Nonce: nonce, Blinded: blinded}
}

// TestDenominationIsFetchedOnceAndNeverCostsALicence: the key is
// remembered per content id, exchanges name it, and an exchange naming a
// key the provider does not hold is refused with nonce and licence
// intact and the entry forgotten — single and batch alike.
func TestDenominationIsFetchedOnceAndNeverCostsALicence(t *testing.T) {
	h := newV2Harness(t, Auth{})
	reqs := counted(h.client)
	ex := exchangeOverHTTP(t, h)
	if _, _, err := h.client.Denomination("song-1"); err != nil {
		t.Fatal(err)
	}
	if got := reqs.take()["GET /v2/denomination"]; got != 1 {
		t.Errorf("two Denomination calls made %d requests, want 1", got)
	}
	good := h.client.denoms["song-1"]
	if pub, _, _ := h.prov.DenomPublic("song-1"); good.keyID != rsablind.KeyID(pub) {
		t.Fatalf("remembered key id %q is not the provider's", good.keyID)
	}
	consumed := h.prov.ConsumedNonces()
	refused := func(what string, err error) {
		t.Helper()
		var ae *APIError
		if !errors.As(err, &ae) || ae.Kind != "stale-key" {
			t.Errorf("%s with a stale key: %v, want a stale-key APIError", what, err)
		}
		if _, still := h.client.denoms["song-1"]; still {
			t.Errorf("%s: the stale entry was kept", what)
		}
		if h.prov.Revoked(ex.License.Serial) || h.prov.ConsumedNonces() != consumed {
			t.Errorf("%s: the refusal retired the licence or consumed the nonce", what)
		}
	}
	stale := good
	stale.keyID = "0123456789abcdef"

	h.client.denoms["song-1"] = stale
	_, err := h.client.Exchange(ex.License, ex.Proof, ex.Nonce, ex.Blinded)
	refused("Exchange", err)

	h.client.denoms["song-1"] = stale
	_, errs, err := h.client.ExchangeBatch([]BatchExchange{ex})
	if err != nil {
		t.Fatal(err)
	}
	refused("ExchangeBatch", errs[0])

	// The very same nonce, proof and licence go through under the
	// provider's key, named or not.
	if _, _, err := h.client.Denomination("song-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.client.Exchange(ex.License, ex.Proof, ex.Nonce, ex.Blinded); err != nil {
		t.Fatalf("exchange after refetching the key: %v", err)
	}
}

// TestClientsShareNoCacheState: what one Client has remembered is not
// visible to another — the buyer's and the redeeming peer's SDKs have
// nothing in common a server could tell them apart or together by.
func TestClientsShareNoCacheState(t *testing.T) {
	h := newV2Harness(t, Auth{})
	exchangeOverHTTP(t, h) // fills every cache of h.client
	other := NewClient(h.srv.URL, h.client.Group)
	if other.coinPub != nil || other.denoms != nil || other.beacon != "" {
		t.Fatalf("a new Client starts with state: %+v", other)
	}
	reqs := counted(other)
	if _, err := other.WithdrawCoins("alice", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := other.Denomination("song-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Challenge(); err != nil {
		t.Fatal(err)
	}
	wantRequests(t, "a second Client's first calls", reqs.take(), map[string]int{
		"GET /v2/bank/coinkey": 1, "POST /v2/bank/withdraw": 1, "GET /v2/denomination": 1, "GET /v2/challenge": 1,
	})
}

// FuzzWithdrawRequest drives arbitrary bodies through the withdraw
// handler: the answer is an error envelope and no debit, or a sync
// envelope whose signatures number exactly the credits debited.
func FuzzWithdrawRequest(f *testing.F) {
	_, bk := keys()
	spent, _ := kvstore.Open("")
	bank, err := payment.NewBank(bk, spent)
	if err != nil {
		f.Fatal(err)
	}
	const funds = 1 << 40
	bank.CreateAccount("alice", funds)
	srv := NewServer(nil).WithBank(bank)
	keyID := rsablind.KeyID(bank.CoinPub())
	_, blinded, _ := payment.NewCoinRequests(bank.CoinPub(), 2, rand.Reader)
	good, _ := json.Marshal(WithdrawRequest{Account: "alice", KeyID: keyID, Blinded: []string{b64(blinded[0]), b64(blinded[1])}})
	f.Add(string(good))
	f.Add(strings.Replace(string(good), keyID, "0000000000000000", 1))
	f.Add(`{"account":"alice","key_id":"` + keyID + `","blinded":["AA==","AQ=="]}`)
	f.Add(`{"account":"alice","key_id":"` + keyID + `","blinded":"AQ=="}`)
	f.Add(`{"account":"alice","key_id":"` + keyID + `","blinded":[]}`)
	f.Add(`{"account":"ghost","key_id":"` + keyID + `","blinded":["AQ=="]}`)
	f.Add(`{"blinded":[null,1,{}]}`)
	f.Add(``)
	f.Fuzz(func(t *testing.T, body string) {
		before, signed := balanceOf(bank), bank.CoinsWithdrawn()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v2/bank/withdraw", strings.NewReader(body)))
		var env rawEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("not an envelope: %q", rec.Body.String())
		}
		debited, minted := before-balanceOf(bank), bank.CoinsWithdrawn()-signed
		switch env.Type {
		case "error":
			if debited != 0 || minted != 0 {
				t.Fatalf("error envelope %s after debiting %d and signing %d", env.Result, debited, minted)
			}
		case "sync":
			var resp WithdrawResponse
			if err := json.Unmarshal(env.Result, &resp); err != nil {
				t.Fatal(err)
			}
			if n := int64(len(resp.BlindSigs)); n == 0 || n != debited || n != minted {
				t.Fatalf("%d signatures for %d credits debited (%d coins counted)", n, debited, minted)
			}
		default:
			t.Fatalf("envelope type %q", env.Type)
		}
	})
}

func balanceOf(b *payment.Bank) int64 {
	bal, _ := b.Balance("alice")
	return bal
}
