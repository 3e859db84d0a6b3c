// Package httpapi exposes the content provider over JSON/HTTP and gives
// clients an SDK speaking the same protocol, so the P2DRM parties can run
// in separate processes (cmd/p2drmd + cmd/p2drm).
//
// # One API tree
//
// Every route lives under /v2/ and follows snapd's REST design: every
// response is a uniform envelope
//
//	{"type":"sync","status-code":200,"result":...}
//	{"type":"error","status-code":4xx,"result":{"message":"...","kind":"..."}}
//
// and routes carry a minimum auth tier (guest read, authenticated user,
// trusted admin — see Auth). Every action answers in its own request,
// the admin ones (compaction, revocation-list rebuild, replica
// promotion and resync) included: each is idempotent, so one cut off by
// a crash or a disconnect is simply sent again. A path no route matches
// answers an envelope 404; docs/rest.md is the authoritative reference.
//
// # Wire conventions
//
// Binary artifacts (licenses, proofs, blinded blobs) travel
// base64-encoded inside JSON envelopes. The three batch endpoints are
// synchronous and share one shape: up to maxBatchItems slots, per-slot
// outcomes in request order (a malformed or failed slot never voids the
// rest), and the provider's shared worker pool underneath.
package httpapi

import (
	cryptorand "crypto/rand"
	"crypto/rsa"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/replica"
	"p2drm/internal/revocation"
)

// Server wraps a provider with HTTP handlers. When Bank is non-nil the
// demo bank endpoints (account creation, blind withdrawal) are exposed
// too, so a single daemon can serve complete out-of-process flows.
type Server struct {
	api
	Provider *provider.Provider
	Bank     *payment.Bank
	// stores are the kvstore instances surfaced by stats and compaction,
	// keyed by a human-readable name (registered before serving starts).
	stores map[string]*kvstore.Store
	// replicas are the replication sources served under replica/*,
	// keyed like stores (registered before serving starts).
	replicas map[string]*replica.Source
}

// NewServer builds the handler tree.
func NewServer(p *provider.Provider) *Server {
	s := &Server{Provider: p, api: newAPI()}
	s.registerV2()
	if p != nil {
		s.registerCryptoMetrics()
		s.registerRevocationMetrics()
		s.registerNonceMetrics()
		s.registerKEMMetrics()
		s.registerRSAMetrics()
	}
	return s
}

// WithBank attaches a demo bank. Call before serving starts.
func (s *Server) WithBank(b *payment.Bank) *Server {
	s.Bank = b
	s.obs.Reg.CounterFunc("p2drm_bank_coins_withdrawn_total",
		"Coins blind-signed by successful withdrawals (a withdrawal request carries a list of them).",
		b.CoinsWithdrawn)
	s.rsaPrivateOps().Func(func() int64 { return int64(b.RSAPrivateOps()) }, "coin")
	return s
}

// WithStoreStats registers a kvstore under name for stats, kv reads and
// compaction. Call before serving starts (registration is not
// synchronized).
func (s *Server) WithStoreStats(name string, st *kvstore.Store) *Server {
	if s.stores == nil {
		s.stores = make(map[string]*kvstore.Store)
	}
	s.stores[name] = st
	registerStoreMetrics(s.obs.Reg, name, st)
	registerStoreHealth(s.obs.Health, name, st)
	return s
}

// WithAuth installs the access policy (see Auth). Call before serving
// starts; the zero policy leaves the API open.
func (s *Server) WithAuth(a Auth) *Server {
	s.auth = a
	return s
}

// BankAccountRequest opens a funded demo account.
type BankAccountRequest struct {
	ID    string `json:"id"`
	Funds int64  `json:"funds"`
}

// WithdrawRequest requests a list of blind-signed coins, all or nothing:
// 1..maxBatchItems blinded coins, and the rsablind.KeyID of the coin key
// they were blinded under.
type WithdrawRequest struct {
	Account string   `json:"account"`
	KeyID   string   `json:"key_id"`
	Blinded []string `json:"blinded"`
}

// WithdrawResponse carries the bank's blind signatures in request order.
type WithdrawResponse struct {
	BlindSigs []string `json:"blind_sigs"`
}

func (s *Server) epProviderKey(r *http.Request) (any, *apiError) {
	pub := s.Provider.Public()
	return map[string]interface{}{"n": b64(pub.N.Bytes()), "e": pub.E}, nil
}

func (s *Server) epCoinKey(r *http.Request) (any, *apiError) {
	if s.Bank == nil {
		return nil, errNotFound(errors.New("httpapi: no bank attached"))
	}
	pub := s.Bank.CoinPub()
	return map[string]interface{}{"n": b64(pub.N.Bytes()), "e": pub.E}, nil
}

func (s *Server) epBankAccount(r *http.Request) (any, *apiError) {
	if s.Bank == nil {
		return nil, errNotFound(errors.New("httpapi: no bank attached"))
	}
	var req BankAccountRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	if err := s.Bank.CreateAccount(req.ID, req.Funds); err != nil {
		return nil, errRejected(err)
	}
	return map[string]string{"status": "created"}, nil
}

func (s *Server) epWithdraw(r *http.Request) (any, *apiError) {
	if s.Bank == nil {
		return nil, errNotFound(errors.New("httpapi: no bank attached"))
	}
	var req WithdrawRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	if e := checkBatchSize(len(req.Blinded)); e != nil {
		return nil, e
	}
	blinded := make([][]byte, len(req.Blinded))
	for i, bl := range req.Blinded {
		var err error
		if blinded[i], err = unb64(bl); err != nil {
			return nil, errBadRequest(err)
		}
	}
	sigs, err := s.Bank.WithdrawList(req.Account, req.KeyID, blinded)
	if err != nil {
		return nil, errRejected(err)
	}
	resp := WithdrawResponse{BlindSigs: make([]string, len(sigs))}
	for i, sig := range sigs {
		resp.BlindSigs[i] = b64(sig)
	}
	return resp, nil
}

// ProviderKey fetches the provider's license/revocation verification key.
// Clients should pin it on first use.
func (c *Client) ProviderKey() (*rsa.PublicKey, error) { return c.fetchKey("/v2/provider/key") }

// CoinKey fetches the bank's coin verification key.
func (c *Client) CoinKey() (*rsa.PublicKey, error) { return c.fetchKey("/v2/bank/coinkey") }

func (c *Client) fetchKey(path string) (*rsa.PublicKey, error) {
	var out struct {
		N string `json:"n"`
		E int    `json:"e"`
	}
	if err := c.call("GET", path, nil, &out); err != nil {
		return nil, err
	}
	nBytes, err := unb64(out.N)
	if err != nil {
		return nil, err
	}
	return &rsa.PublicKey{N: new(big.Int).SetBytes(nBytes), E: out.E}, nil
}

// CreateAccount opens a demo bank account.
func (c *Client) CreateAccount(id string, funds int64) error {
	return c.call("POST", "/v2/bank/account", BankAccountRequest{ID: id, Funds: funds}, nil)
}

// WithdrawCoins mints n coins over the wire: n blinded requests go to the
// bank as one list (lists of maxBatchItems when n is larger), and every
// coin is unblinded and verified before it is returned. A list is all or
// nothing at the bank, so a failed call has debited nothing for it; only
// when n spans several lists can an error come with coins — those of the
// lists already paid for, never thrown away. The coin key is fetched once
// per Client: the request names the key it blinded under, and a bank
// holding another refuses before it debits, upon which the key is
// fetched anew and the list sent once more.
func (c *Client) WithdrawCoins(account string, n int) ([]*payment.Coin, error) {
	coins := make([]*payment.Coin, 0, max(n, 0))
	for len(coins) < n {
		k := min(n-len(coins), maxBatchItems)
		list, err := c.withdrawList(account, k)
		if hasKind(err, kindStaleKey) {
			list, err = c.withdrawList(account, k)
		}
		if err != nil {
			return coins, err
		}
		coins = append(coins, list...)
	}
	return coins, nil
}

// withdrawList is one list withdrawal under the remembered coin key,
// which it forgets when the bank says it is stale.
func (c *Client) withdrawList(account string, n int) ([]*payment.Coin, error) {
	c.mu.Lock()
	pub := c.coinPub
	c.mu.Unlock()
	if pub == nil {
		var err error
		if pub, err = c.CoinKey(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.coinPub = pub
		c.mu.Unlock()
	}
	reqs, blinded, err := payment.NewCoinRequests(pub, n, cryptorand.Reader)
	if err != nil {
		return nil, err
	}
	wire := WithdrawRequest{Account: account, KeyID: rsablind.KeyID(pub), Blinded: make([]string, n)}
	for i, bl := range blinded {
		wire.Blinded[i] = b64(bl)
	}
	var resp WithdrawResponse
	if err := c.call("POST", "/v2/bank/withdraw", wire, &resp); err != nil {
		if hasKind(err, kindStaleKey) {
			c.mu.Lock()
			if c.coinPub == pub {
				c.coinPub = nil
			}
			c.mu.Unlock()
		}
		return nil, err
	}
	sigs := make([][]byte, len(resp.BlindSigs))
	for i, sig := range resp.BlindSigs {
		if sigs[i], err = unb64(sig); err != nil {
			return nil, err
		}
	}
	return payment.FinishCoins(pub, reqs, sigs)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.api.serveHTTP(w, r) }

// Wire types.

// CatalogEntry is a catalog row.
type CatalogEntry struct {
	ID           string `json:"id"`
	Title        string `json:"title"`
	PriceCredits int64  `json:"price_credits"`
	Rights       string `json:"rights"`
}

// DenominationInfo carries a denomination verification key.
type DenominationInfo struct {
	ContentID string `json:"content_id"`
	Denom     string `json:"denom"`
	N         string `json:"n"` // big-endian base64 modulus
	E         int    `json:"e"`
}

// RegisterRequest registers a pseudonym.
type RegisterRequest struct {
	SignPub string `json:"sign_pub"`
	EncPub  string `json:"enc_pub"`
	Proof   string `json:"proof"`
	Nonce   string `json:"nonce"`
}

// PurchaseRequest buys a license.
type PurchaseRequest struct {
	ContentID string   `json:"content_id"`
	SignPub   string   `json:"sign_pub"`
	EncPub    string   `json:"enc_pub"`
	Coins     []string `json:"coins"` // serial||sig, base64
}

// LicenseResponse returns a marshaled personalized license.
type LicenseResponse struct {
	License string `json:"license"`
}

// BatchPurchaseRequest carries several purchases settled as one call on
// the provider's worker pool.
type BatchPurchaseRequest struct {
	Purchases []PurchaseRequest `json:"purchases"`
}

// BatchPurchaseResult is one per-purchase outcome: exactly one of
// License and Error is set.
type BatchPurchaseResult struct {
	License string `json:"license,omitempty"`
	Error   string `json:"error,omitempty"`
}

// BatchPurchaseResponse returns outcomes in request order.
type BatchPurchaseResponse struct {
	Results []BatchPurchaseResult `json:"results"`
}

// ExchangeRequest retires a license for a blind signature. KeyID is
// optional: the rsablind.KeyID of the denomination key Blinded was made
// under, which the provider checks before anything else.
type ExchangeRequest struct {
	License string `json:"license"`
	Proof   string `json:"proof"`
	Nonce   string `json:"nonce"`
	Blinded string `json:"blinded"`
	KeyID   string `json:"key_id,omitempty"`
}

// ExchangeResponse carries the blind signature.
type ExchangeResponse struct {
	BlindSig string `json:"blind_sig"`
}

// BatchExchangeRequest carries several exchanges settled as one call on
// the provider's worker pool.
type BatchExchangeRequest struct {
	Exchanges []ExchangeRequest `json:"exchanges"`
}

// BatchExchangeResult is one per-exchange outcome: exactly one of
// BlindSig and Error is set. Kind accompanies an Error that has a kind of
// its own in the error envelope of POST /v2/exchange (stale-key,
// bad-nonce).
type BatchExchangeResult struct {
	BlindSig string `json:"blind_sig,omitempty"`
	Error    string `json:"error,omitempty"`
	Kind     string `json:"kind,omitempty"`
}

// BatchExchangeResponse returns outcomes in request order.
type BatchExchangeResponse struct {
	Results []BatchExchangeResult `json:"results"`
}

// RedeemRequest redeems an anonymous license.
type RedeemRequest struct {
	Anonymous string `json:"anonymous"`
	SignPub   string `json:"sign_pub"`
	EncPub    string `json:"enc_pub"`
}

// BatchRedeemRequest carries several redemptions settled as one call on
// the provider's worker pool.
type BatchRedeemRequest struct {
	Redeems []RedeemRequest `json:"redeems"`
}

// BatchRedeemResult is one per-redeem outcome: exactly one of License
// and Error is set.
type BatchRedeemResult struct {
	License string `json:"license,omitempty"`
	Error   string `json:"error,omitempty"`
}

// BatchRedeemResponse returns outcomes in request order.
type BatchRedeemResponse struct {
	Results []BatchRedeemResult `json:"results"`
}

// StatsResponse reports per-store kvstore engine statistics (segments,
// live keys, dead bytes, compactions), keyed by the name each store was
// registered under. Crypto counters live on /v2/metrics.
type StatsResponse struct {
	Stores map[string]kvstore.Stats `json:"stores"`
}

func b64(b []byte) string { return base64.StdEncoding.EncodeToString(b) }

func unb64(s string) ([]byte, error) { return base64.StdEncoding.DecodeString(s) }

func (s *Server) epCatalog(r *http.Request) (any, *apiError) {
	items := s.Provider.Catalog()
	out := make([]CatalogEntry, 0, len(items))
	for _, it := range items {
		out = append(out, CatalogEntry{
			ID: string(it.ID), Title: it.Title,
			PriceCredits: it.PriceCredits, Rights: it.Template.String(),
		})
	}
	return out, nil
}

// serveContent streams the encrypted blob.
func (s *Server) serveContent(w http.ResponseWriter, r *http.Request) {
	item, err := s.Provider.Item(license.ContentID(r.URL.Query().Get("id")))
	if err != nil {
		writeEnvErr(w, errNotFound(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(item.Encrypted)
}

func (s *Server) epDenomination(r *http.Request) (any, *apiError) {
	id := license.ContentID(r.URL.Query().Get("id"))
	pub, denom, err := s.Provider.DenomPublic(id)
	if err != nil {
		return nil, errNotFound(err)
	}
	return DenominationInfo{
		ContentID: string(id),
		Denom:     denom.String(),
		N:         b64(pub.N.Bytes()),
		E:         pub.E,
	}, nil
}

func (s *Server) epChallenge(r *http.Request) (any, *apiError) {
	beacon, currentFor := s.Provider.Beacon()
	nonce, err := provider.NewNonce(beacon)
	if err != nil {
		return nil, errInternal(err)
	}
	return ChallengeResponse{Nonce: nonce, Beacon: beacon, CurrentForMS: currentFor.Milliseconds()}, nil
}

func (s *Server) epRegister(r *http.Request) (any, *apiError) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	signPub, err1 := unb64(req.SignPub)
	encPub, err2 := unb64(req.EncPub)
	proofBytes, err3 := unb64(req.Proof)
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, errBadRequest(errors.New("httpapi: bad base64 field"))
	}
	proof, err := schnorr.ParseProof(s.Provider.Group(), proofBytes)
	if err != nil {
		return nil, errBadRequest(err)
	}
	if err := s.Provider.Register(r.Context(), signPub, encPub, proof, req.Nonce); err != nil {
		return nil, errRejected(err)
	}
	return map[string]string{"status": "registered"}, nil
}

// encodeCoin flattens a coin for the wire.
func encodeCoin(c *payment.Coin) string {
	return b64(append(append([]byte(nil), c.Serial[:]...), c.Sig...))
}

func decodeCoin(s string) (*payment.Coin, error) {
	raw, err := unb64(s)
	if err != nil || len(raw) < payment.CoinSerialLen+1 {
		return nil, errors.New("httpapi: malformed coin")
	}
	var c payment.Coin
	copy(c.Serial[:], raw[:payment.CoinSerialLen])
	c.Sig = append([]byte(nil), raw[payment.CoinSerialLen:]...)
	return &c, nil
}

// decodePurchase converts one wire purchase into a provider request.
func decodePurchase(pr PurchaseRequest) (provider.PurchaseRequest, error) {
	signPub, err1 := unb64(pr.SignPub)
	encPub, err2 := unb64(pr.EncPub)
	if err1 != nil || err2 != nil {
		return provider.PurchaseRequest{}, errors.New("httpapi: bad base64 field")
	}
	coins := make([]*payment.Coin, 0, len(pr.Coins))
	for _, cs := range pr.Coins {
		c, err := decodeCoin(cs)
		if err != nil {
			return provider.PurchaseRequest{}, err
		}
		coins = append(coins, c)
	}
	return provider.PurchaseRequest{
		ContentID: license.ContentID(pr.ContentID),
		SignPub:   signPub, EncPub: encPub, Coins: coins,
	}, nil
}

func (s *Server) epPurchase(r *http.Request) (any, *apiError) {
	var req PurchaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	preq, err := decodePurchase(req)
	if err != nil {
		return nil, errBadRequest(err)
	}
	lic, err := s.Provider.Purchase(r.Context(), preq)
	if err != nil {
		return nil, errRejected(err)
	}
	return LicenseResponse{License: b64(lic.Marshal())}, nil
}

// maxBatchItems bounds one batch call's memory and response latency
// (purchase, exchange and redeem alike); CPU fairness across batches is
// enforced by the provider's shared worker semaphore, not by this cap.
const maxBatchItems = 256

// maxRequestBody bounds every request body (http.MaxBytesReader in
// instrument): a handler decodes at most this much before answering 413
// request-too-large, so no client can make the daemon buffer an
// unbounded document. 32 KiB per slot of a full batch is room for a
// production-size (2048-bit) exchange slot — license, proof and blinded
// serial come to about 4 KiB of base64 — eight times over, or for a
// purchase slot paying with some eighty coins.
const maxRequestBody = maxBatchItems * 32 << 10

// checkBatchSize enforces the shared batch-size bound.
func checkBatchSize(n int) *apiError {
	if n == 0 || n > maxBatchItems {
		return errBadRequest(fmt.Errorf("httpapi: batch size must be 1..%d", maxBatchItems))
	}
	return nil
}

// decodeSlots decodes each wire slot of a batch, reporting decode
// failures per slot through fail (one malformed entry must not void the
// rest), and returns the surviving items plus their original indexes so
// pool results can be mapped back to response slots.
func decodeSlots[W, I any](ws []W, decode func(W) (I, error), fail func(i int, err error)) (items []I, slots []int) {
	items = make([]I, 0, len(ws))
	slots = make([]int, 0, len(ws))
	for i, w := range ws {
		item, err := decode(w)
		if err != nil {
			fail(i, err)
			continue
		}
		items = append(items, item)
		slots = append(slots, i)
	}
	return items, slots
}

func (s *Server) epPurchaseBatch(r *http.Request) (any, *apiError) {
	var req BatchPurchaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	if e := checkBatchSize(len(req.Purchases)); e != nil {
		return nil, e
	}
	resp := BatchPurchaseResponse{Results: make([]BatchPurchaseResult, len(req.Purchases))}
	reqs, slots := decodeSlots(req.Purchases, decodePurchase,
		func(i int, err error) { resp.Results[i].Error = err.Error() })
	for j, res := range s.Provider.IssueBatch(r.Context(), reqs) {
		i := slots[j]
		if res.Err != nil {
			resp.Results[i].Error = res.Err.Error()
			continue
		}
		resp.Results[i].License = b64(res.License.Marshal())
	}
	return resp, nil
}

// decodeExchange converts one wire exchange into a provider item.
func (s *Server) decodeExchange(er ExchangeRequest) (provider.ExchangeItem, error) {
	licBytes, err1 := unb64(er.License)
	proofBytes, err2 := unb64(er.Proof)
	blinded, err3 := unb64(er.Blinded)
	if err1 != nil || err2 != nil || err3 != nil {
		return provider.ExchangeItem{}, errors.New("httpapi: bad base64 field")
	}
	lic, err := license.UnmarshalPersonalized(licBytes)
	if err != nil {
		return provider.ExchangeItem{}, err
	}
	proof, err := schnorr.ParseProof(s.Provider.Group(), proofBytes)
	if err != nil {
		return provider.ExchangeItem{}, err
	}
	return provider.ExchangeItem{License: lic, Proof: proof, Nonce: er.Nonce, Blinded: blinded, KeyID: er.KeyID}, nil
}

// decodeRedeem converts one wire redeem into a provider item.
func decodeRedeem(rr RedeemRequest) (provider.RedeemItem, error) {
	anonBytes, err1 := unb64(rr.Anonymous)
	signPub, err2 := unb64(rr.SignPub)
	encPub, err3 := unb64(rr.EncPub)
	if err1 != nil || err2 != nil || err3 != nil {
		return provider.RedeemItem{}, errors.New("httpapi: bad base64 field")
	}
	anon, err := license.UnmarshalAnonymous(anonBytes)
	if err != nil {
		return provider.RedeemItem{}, err
	}
	return provider.RedeemItem{Anonymous: anon, SignPub: signPub, EncPub: encPub}, nil
}

func (s *Server) epExchange(r *http.Request) (any, *apiError) {
	var req ExchangeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	item, err := s.decodeExchange(req)
	if err != nil {
		return nil, errBadRequest(err)
	}
	blindSig, err := s.Provider.ExchangeOne(r.Context(), item)
	if err != nil {
		return nil, errRejected(err)
	}
	return ExchangeResponse{BlindSig: b64(blindSig)}, nil
}

func (s *Server) epExchangeBatch(r *http.Request) (any, *apiError) {
	var req BatchExchangeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	if e := checkBatchSize(len(req.Exchanges)); e != nil {
		return nil, e
	}
	resp := BatchExchangeResponse{Results: make([]BatchExchangeResult, len(req.Exchanges))}
	items, slots := decodeSlots(req.Exchanges, s.decodeExchange,
		func(i int, err error) { resp.Results[i].Error = err.Error() })
	for j, res := range s.Provider.ExchangeBatch(r.Context(), items) {
		i := slots[j]
		if res.Err != nil {
			resp.Results[i].Error = res.Err.Error()
			resp.Results[i].Kind = refusalKind(res.Err)
			continue
		}
		resp.Results[i].BlindSig = b64(res.BlindSig)
	}
	return resp, nil
}

func (s *Server) epRedeem(r *http.Request) (any, *apiError) {
	var req RedeemRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	item, err := decodeRedeem(req)
	if err != nil {
		return nil, errBadRequest(err)
	}
	lic, err := s.Provider.Redeem(r.Context(), item.Anonymous, item.SignPub, item.EncPub)
	if err != nil {
		return nil, errRejected(err)
	}
	return LicenseResponse{License: b64(lic.Marshal())}, nil
}

func (s *Server) epRedeemBatch(r *http.Request) (any, *apiError) {
	var req BatchRedeemRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	if e := checkBatchSize(len(req.Redeems)); e != nil {
		return nil, e
	}
	resp := BatchRedeemResponse{Results: make([]BatchRedeemResult, len(req.Redeems))}
	items, slots := decodeSlots(req.Redeems, decodeRedeem,
		func(i int, err error) { resp.Results[i].Error = err.Error() })
	for j, res := range s.Provider.RedeemBatch(r.Context(), items) {
		i := slots[j]
		if res.Err != nil {
			resp.Results[i].Error = res.Err.Error()
			continue
		}
		resp.Results[i].License = b64(res.License.Marshal())
	}
	return resp, nil
}

func (s *Server) epStats(r *http.Request) (any, *apiError) {
	resp := StatsResponse{Stores: make(map[string]kvstore.Stats, len(s.stores))}
	for name, st := range s.stores {
		resp.Stores[name] = st.Stats()
	}
	return resp, nil
}

// serveRevocationFilter writes the signed filter in its wire encoding
// (revocation.SignedFilter.Marshal): the provider cuts the artefact once
// per filter state, so this is a copy of cached bytes to the socket.
func (s *Server) serveRevocationFilter(w http.ResponseWriter, r *http.Request) {
	wire, err := s.Provider.RevocationFilterWire()
	if err != nil {
		writeEnvErr(w, errInternal(err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(wire)))
	w.Write(wire)
}

// epRevocationContains is the primary's exact-answer revocation check,
// mirroring the replica endpoint so clients can point the same call at
// either tier: the bloom filter is the offline approximation, this is
// the authoritative store lookup.
func (s *Server) epRevocationContains(r *http.Request) (any, *apiError) {
	raw, err := base64.URLEncoding.DecodeString(r.URL.Query().Get("serial"))
	var serial license.Serial
	if err != nil || len(raw) != len(serial) {
		return nil, errBadRequest(errors.New("httpapi: bad serial (want base64url of exact length)"))
	}
	copy(serial[:], raw)
	return ContainsResponse{Found: s.Provider.Revoked(serial)}, nil
}

// Catalog lists items.
func (c *Client) Catalog() ([]CatalogEntry, error) {
	var out []CatalogEntry
	return out, c.call("GET", "/v2/catalog", nil, &out)
}

// Content downloads an encrypted content blob.
func (c *Client) Content(id license.ContentID) ([]byte, error) {
	resp, err := c.stream("/v2/content?id=" + url.QueryEscape(string(id)))
	if err != nil {
		return nil, err
	}
	return readBody(resp)
}

// denomination is one remembered /v2/denomination answer.
type denomination struct {
	pub   *rsa.PublicKey
	id    license.DenominationID
	keyID string
}

// Denomination returns an item's blind-signature verification key. The
// key is immutable, so it is fetched once per Client and content id;
// Exchange and ExchangeBatch name the remembered key to the provider,
// which refuses — nonce and licence untouched — should it ever hold
// another, and the entry is forgotten on that refusal.
func (c *Client) Denomination(id license.ContentID) (*rsa.PublicKey, license.DenominationID, error) {
	c.mu.Lock()
	d, ok := c.denoms[id]
	c.mu.Unlock()
	if ok {
		return d.pub, d.id, nil
	}
	var info DenominationInfo
	if err := c.call("GET", "/v2/denomination?id="+url.QueryEscape(string(id)), nil, &info); err != nil {
		return nil, license.DenominationID{}, err
	}
	nBytes, err := unb64(info.N)
	if err != nil {
		return nil, license.DenominationID{}, err
	}
	db, err := hex.DecodeString(info.Denom) // DenominationID.String is hex
	if err != nil || len(db) != len(d.id) {
		return nil, license.DenominationID{}, errors.New("httpapi: bad denomination id")
	}
	copy(d.id[:], db)
	d.pub = &rsa.PublicKey{N: new(big.Int).SetBytes(nBytes), E: info.E}
	d.keyID = rsablind.KeyID(d.pub)
	c.mu.Lock()
	if c.denoms == nil {
		c.denoms = make(map[license.ContentID]denomination)
	}
	c.denoms[id] = d
	c.mu.Unlock()
	return d.pub, d.id, nil
}

// denomKeyID is the key id of the denomination key remembered for an
// item, "" when Denomination has not been asked for it.
func (c *Client) denomKeyID(id license.ContentID) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.denoms[id].keyID
}

// ChallengeResponse answers GET /v2/challenge: a complete nonce, the
// beacon it was made under, and for how long that beacon is the current
// one. Any provider.NewNonce of the beacon — the beacon followed by 32
// lowercase hex digits — is a nonce the provider accepts once, until the
// end of the epoch after the beacon's.
type ChallengeResponse struct {
	Nonce        string `json:"nonce"`
	Beacon       string `json:"beacon"`
	CurrentForMS int64  `json:"current_for_ms"`
}

// Challenge returns a fresh single-use nonce. While the beacon it last
// fetched is still the provider's current one it makes the nonce itself
// (provider.NewNonce) and otherwise it asks the provider; either way the
// nonce has at least a full beacon epoch left to live. A provider that
// refuses a nonce (bad-nonce: it may have restarted, and beacons die with
// the process) makes the Client ask again next time.
func (c *Client) Challenge() (string, error) {
	// Taken before the request, the time the answer's current_for_ms is
	// counted from can only make the beacon look older than it is.
	now := time.Now()
	c.mu.Lock()
	beacon, current := c.beacon, now.Before(c.beaconUntil)
	c.mu.Unlock()
	if current {
		return provider.NewNonce(beacon)
	}
	var out ChallengeResponse
	if err := c.call("GET", "/v2/challenge", nil, &out); err != nil {
		return "", err
	}
	c.mu.Lock()
	c.beacon, c.beaconUntil = out.Beacon, now.Add(time.Duration(out.CurrentForMS)*time.Millisecond)
	c.mu.Unlock()
	return out.Nonce, nil
}

// nonceRefused takes in the outcome of a call that carried a nonce: if
// the provider refused a nonce made under the remembered beacon, the
// beacon is not used again.
func (c *Client) nonceRefused(err error, nonce string) {
	if !hasKind(err, kindBadNonce) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.beacon != "" && strings.HasPrefix(nonce, c.beacon) {
		c.beaconUntil = time.Time{}
	}
}

// exchangeRefused is nonceRefused for an exchange, which also names a
// key: the remembered denomination key the provider called stale goes.
func (c *Client) exchangeRefused(err error, id license.ContentID, req ExchangeRequest) {
	c.nonceRefused(err, req.Nonce)
	if !hasKind(err, kindStaleKey) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.denoms[id].keyID == req.KeyID {
		delete(c.denoms, id)
	}
}

// Register registers a pseudonym.
func (c *Client) Register(signPub, encPub []byte, proof *schnorr.Proof, nonce string) error {
	req := RegisterRequest{
		SignPub: b64(signPub), EncPub: b64(encPub),
		Proof: b64(proof.Bytes(c.Group)), Nonce: nonce,
	}
	err := c.call("POST", "/v2/register", req, nil)
	c.nonceRefused(err, nonce)
	return err
}

// Purchase buys a license with coins.
func (c *Client) Purchase(id license.ContentID, signPub, encPub []byte, coins []*payment.Coin) (*license.Personalized, error) {
	req := PurchaseRequest{ContentID: string(id), SignPub: b64(signPub), EncPub: b64(encPub)}
	for _, coin := range coins {
		req.Coins = append(req.Coins, encodeCoin(coin))
	}
	var resp LicenseResponse
	if err := c.call("POST", "/v2/purchase", req, &resp); err != nil {
		return nil, err
	}
	raw, err := unb64(resp.License)
	if err != nil {
		return nil, err
	}
	return license.UnmarshalPersonalized(raw)
}

// BatchPurchase is one typed entry for Client.PurchaseBatch, mirroring
// the arguments of Client.Purchase.
type BatchPurchase struct {
	ContentID license.ContentID
	SignPub   []byte
	EncPub    []byte
	Coins     []*payment.Coin
}

// PurchaseBatch buys several licenses in one round trip. Outcomes come
// back in request order; per-item failures are returned as errors in the
// slice, not as a call-level error.
func (c *Client) PurchaseBatch(items []BatchPurchase) ([]*license.Personalized, []error, error) {
	reqs := encodePurchases(items)
	var resp BatchPurchaseResponse
	if err := c.call("POST", "/v2/purchase/batch", BatchPurchaseRequest{Purchases: reqs}, &resp); err != nil {
		return nil, nil, err
	}
	return decodePurchaseResults(resp, len(reqs))
}

func encodePurchases(items []BatchPurchase) []PurchaseRequest {
	reqs := make([]PurchaseRequest, len(items))
	for i, it := range items {
		reqs[i] = PurchaseRequest{
			ContentID: string(it.ContentID), SignPub: b64(it.SignPub), EncPub: b64(it.EncPub),
		}
		for _, coin := range it.Coins {
			reqs[i].Coins = append(reqs[i].Coins, encodeCoin(coin))
		}
	}
	return reqs
}

func decodePurchaseResults(resp BatchPurchaseResponse, want int) ([]*license.Personalized, []error, error) {
	if len(resp.Results) != want {
		return nil, nil, fmt.Errorf("httpapi: batch returned %d results for %d requests", len(resp.Results), want)
	}
	lics := make([]*license.Personalized, want)
	errs := make([]error, want)
	for i, res := range resp.Results {
		if res.Error != "" {
			errs[i] = fmt.Errorf("httpapi: server: %s", res.Error)
			continue
		}
		raw, err := unb64(res.License)
		if err != nil {
			errs[i] = err
			continue
		}
		if lics[i], err = license.UnmarshalPersonalized(raw); err != nil {
			errs[i] = err
		}
	}
	return lics, errs, nil
}

// Exchange retires a license for a blind signature over blinded.
func (c *Client) Exchange(lic *license.Personalized, proof *schnorr.Proof, nonce string, blinded []byte) ([]byte, error) {
	req := c.exchangeRequest(BatchExchange{License: lic, Proof: proof, Nonce: nonce, Blinded: blinded})
	var resp ExchangeResponse
	if err := c.call("POST", "/v2/exchange", req, &resp); err != nil {
		c.exchangeRefused(err, lic.ContentID, req)
		return nil, err
	}
	return unb64(resp.BlindSig)
}

// exchangeRequest puts one exchange on the wire, naming the denomination
// key remembered for the licence's item if Denomination fetched one.
func (c *Client) exchangeRequest(it BatchExchange) ExchangeRequest {
	return ExchangeRequest{
		License: b64(it.License.Marshal()), Proof: b64(it.Proof.Bytes(c.Group)),
		Nonce: it.Nonce, Blinded: b64(it.Blinded), KeyID: c.denomKeyID(it.License.ContentID),
	}
}

// BatchExchange is one typed entry for Client.ExchangeBatch, mirroring
// the arguments of Client.Exchange.
type BatchExchange struct {
	License *license.Personalized
	Proof   *schnorr.Proof
	Nonce   string
	Blinded []byte
}

// ExchangeBatch retires several licenses in one round trip. Blind
// signatures come back in request order; per-item failures are returned
// as errors in the slice, not as a call-level error.
func (c *Client) ExchangeBatch(items []BatchExchange) ([][]byte, []error, error) {
	reqs := make([]ExchangeRequest, len(items))
	for i, it := range items {
		reqs[i] = c.exchangeRequest(it)
	}
	var resp BatchExchangeResponse
	if err := c.call("POST", "/v2/exchange/batch", BatchExchangeRequest{Exchanges: reqs}, &resp); err != nil {
		return nil, nil, err
	}
	if len(resp.Results) != len(reqs) {
		return nil, nil, fmt.Errorf("httpapi: batch returned %d results for %d requests", len(resp.Results), len(reqs))
	}
	sigs := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	for i, res := range resp.Results {
		if res.Kind != "" {
			errs[i] = &APIError{StatusCode: http.StatusForbidden, Kind: res.Kind, Message: res.Error}
			c.exchangeRefused(errs[i], items[i].License.ContentID, reqs[i])
			continue
		}
		if res.Error != "" {
			errs[i] = fmt.Errorf("httpapi: server: %s", res.Error)
			continue
		}
		var err error
		if sigs[i], err = unb64(res.BlindSig); err != nil {
			errs[i] = err
		}
	}
	return sigs, errs, nil
}

// Redeem converts an anonymous license into a personalized one.
func (c *Client) Redeem(anon *license.Anonymous, signPub, encPub []byte) (*license.Personalized, error) {
	req := RedeemRequest{Anonymous: b64(anon.Marshal()), SignPub: b64(signPub), EncPub: b64(encPub)}
	var resp LicenseResponse
	if err := c.call("POST", "/v2/redeem", req, &resp); err != nil {
		return nil, err
	}
	raw, err := unb64(resp.License)
	if err != nil {
		return nil, err
	}
	return license.UnmarshalPersonalized(raw)
}

// BatchRedeem is one typed entry for Client.RedeemBatch, mirroring the
// arguments of Client.Redeem.
type BatchRedeem struct {
	Anonymous *license.Anonymous
	SignPub   []byte
	EncPub    []byte
}

// RedeemBatch redeems several anonymous licenses in one round trip.
// Licenses come back in request order; per-item failures are returned as
// errors in the slice, not as a call-level error.
func (c *Client) RedeemBatch(items []BatchRedeem) ([]*license.Personalized, []error, error) {
	reqs := make([]RedeemRequest, len(items))
	for i, it := range items {
		reqs[i] = RedeemRequest{
			Anonymous: b64(it.Anonymous.Marshal()),
			SignPub:   b64(it.SignPub), EncPub: b64(it.EncPub),
		}
	}
	var resp BatchRedeemResponse
	if err := c.call("POST", "/v2/redeem/batch", BatchRedeemRequest{Redeems: reqs}, &resp); err != nil {
		return nil, nil, err
	}
	if len(resp.Results) != len(reqs) {
		return nil, nil, fmt.Errorf("httpapi: batch returned %d results for %d requests", len(resp.Results), len(reqs))
	}
	lics := make([]*license.Personalized, len(reqs))
	errs := make([]error, len(reqs))
	for i, res := range resp.Results {
		if res.Error != "" {
			errs[i] = fmt.Errorf("httpapi: server: %s", res.Error)
			continue
		}
		raw, err := unb64(res.License)
		if err != nil {
			errs[i] = err
			continue
		}
		if lics[i], err = license.UnmarshalPersonalized(raw); err != nil {
			errs[i] = err
		}
	}
	return lics, errs, nil
}

// Stats fetches the daemon's kvstore engine statistics.
func (c *Client) Stats() (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.call("GET", "/v2/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// RevocationFilter downloads the signed filter. It is untrusted until
// revocation.VerifyFilter has accepted it.
func (c *Client) RevocationFilter() (*revocation.SignedFilter, error) {
	resp, err := c.stream("/v2/revocation/filter")
	if err != nil {
		return nil, err
	}
	data, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	return revocation.ParseSignedFilter(data)
}
