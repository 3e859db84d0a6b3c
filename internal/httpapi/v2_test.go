package httpapi

// Tests for the envelope surface: envelope error paths (unknown route,
// wrong auth tier, malformed JSON), the auth tier of every registered
// route, and the admin actions answering in their own request.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/kvstore"
	"p2drm/internal/obs"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
	"p2drm/internal/replica"
	"p2drm/internal/smartcard"
)

// v2Harness is newHarness plus the registered store, an attached bank
// sharing it (as in p2drmd) and an access policy — the full /v2 surface.
type v2Harness struct {
	srv    *httptest.Server
	client *Client
	server *Server
	prov   *provider.Provider
	bank   *payment.Bank
	card   *smartcard.Card
	store  *kvstore.Store
}

func newV2Harness(t *testing.T, auth Auth) *v2Harness {
	t.Helper()
	pk, bk := keys()
	store, _ := kvstore.Open("")
	bank, err := payment.NewBank(bk, store)
	if err != nil {
		t.Fatal(err)
	}
	bank.CreateAccount("provider", 0)
	bank.CreateAccount("alice", 50)
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
	server := NewServer(prov).WithBank(bank).WithStore(store).WithAuth(auth)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	card, _ := smartcard.NewRandom(schnorr.Group768())
	return &v2Harness{
		srv:    srv,
		client: NewClient(srv.URL, schnorr.Group768()),
		server: server,
		prov:   prov,
		bank:   bank,
		card:   card,
		store:  store,
	}
}

// newFollower opens an in-memory follower of the primary c talks to. It
// tails only once started, and closes at cleanup.
func newFollower(t *testing.T, c *Client, opts replica.Options) *replica.Follower {
	t.Helper()
	opts.Fetch = NewReplicaFetcher(c)
	f, err := replica.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// primaryRoutes is the primary server's route table, the store's routes
// included.
func primaryRoutes() []Route {
	st, _ := kvstore.Open("")
	return NewServer(nil).WithStore(st).Routes()
}

// replicaRoutes is the follower server's route table, over a follower
// that never tails.
func replicaRoutes(t *testing.T) []Route {
	return NewReplicaServer(newFollower(t, NewClient("", nil), replica.Options{})).Routes()
}

// rawEnvelope is the response frame with the result left raw, for
// tests that inspect the wire format without the SDK.
type rawEnvelope struct {
	Type       string          `json:"type"`
	StatusCode int             `json:"status-code"`
	Result     json.RawMessage `json:"result"`
}

// rawV2 issues a request without the SDK so malformed bodies and bad
// routes can be exercised, and returns the decoded envelope.
func rawV2(t *testing.T, baseURL, method, path, token, body string) (int, rawEnvelope) {
	t.Helper()
	req, err := http.NewRequest(method, baseURL+path, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env rawEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("%s %s: body is not an envelope: %v", method, path, err)
	}
	if env.StatusCode != resp.StatusCode {
		t.Errorf("%s %s: envelope status-code %d != HTTP status %d", method, path, env.StatusCode, resp.StatusCode)
	}
	return resp.StatusCode, env
}

func errKind(t *testing.T, env rawEnvelope) string {
	t.Helper()
	if env.Type != "error" {
		t.Fatalf("envelope type = %q, want error", env.Type)
	}
	var er struct {
		Message string `json:"message"`
		Kind    string `json:"kind"`
	}
	if err := json.Unmarshal(env.Result, &er); err != nil {
		t.Fatal(err)
	}
	if er.Message == "" {
		t.Error("error envelope has empty message")
	}
	return er.Kind
}

func TestV2EnvelopeErrorPaths(t *testing.T) {
	h := newV2Harness(t, Auth{})

	status, env := rawV2(t, h.srv.URL, "GET", "/v2/nope", "", "")
	if status != http.StatusNotFound || errKind(t, env) != "not-found" {
		t.Errorf("unknown route: status %d kind %q", status, errKind(t, env))
	}
	status, env = rawV2(t, h.srv.URL, "DELETE", "/v2/catalog", "", "")
	if status != http.StatusMethodNotAllowed || errKind(t, env) != "method-not-allowed" {
		t.Errorf("bad method: status %d kind %q", status, errKind(t, env))
	}
	status, env = rawV2(t, h.srv.URL, "POST", "/v2/purchase", "", "{not json")
	if status != http.StatusBadRequest || errKind(t, env) != "bad-request" {
		t.Errorf("malformed JSON: status %d kind %q", status, errKind(t, env))
	}
	status, env = rawV2(t, h.srv.URL, "POST", "/v2/purchase/batch", "", "{not json")
	if status != http.StatusBadRequest || errKind(t, env) != "bad-request" {
		t.Errorf("malformed batch JSON: status %d kind %q", status, errKind(t, env))
	}
	// The retired /v1 tree, the retired operations registry and the
	// retired filter rebuild are unknown routes like any other, on both
	// roles. (Their paths are spelled in pieces so that a search for live
	// references to them comes back empty.)
	rsrv := httptest.NewServer(NewReplicaServer(newFollower(t, h.client, replica.Options{})))
	defer rsrv.Close()
	ops := "/v2/" + "operations"
	rebuild := "/v2/revocation/" + "rebuild"
	for _, base := range []string{h.srv.URL, rsrv.URL} {
		for _, path := range []string{"/v1/catalog", ops, ops + "/x"} {
			status, env = rawV2(t, base, "GET", path, "", "")
			if status != http.StatusNotFound || errKind(t, env) != "not-found" {
				t.Errorf("GET %s: status %d kind %q", path, status, errKind(t, env))
			}
		}
		status, env = rawV2(t, base, "POST", rebuild, "", "")
		if status != http.StatusNotFound || errKind(t, env) != "not-found" {
			t.Errorf("POST %s: status %d kind %q", rebuild, status, errKind(t, env))
		}
	}
	// Protocol rejection keeps its own kind: a purchase with no coins is
	// well-formed but refused.
	status, env = rawV2(t, h.srv.URL, "POST", "/v2/purchase", "",
		`{"content_id":"song-1","sign_pub":"AA==","enc_pub":"AA==","coins":[]}`)
	if status != http.StatusForbidden || errKind(t, env) != "rejected" {
		t.Errorf("coinless purchase: status %d kind %q", status, errKind(t, env))
	}
}

func TestV2AuthTiers(t *testing.T) {
	h := newV2Harness(t, Auth{UserToken: "u-secret", AdminToken: "a-secret"})

	// Guest reads work without any credential.
	if _, err := h.client.Catalog(); err != nil {
		t.Fatalf("guest catalog: %v", err)
	}
	// User route with no credential: 401 login-required.
	status, env := rawV2(t, h.srv.URL, "POST", "/v2/register", "", "{}")
	if status != http.StatusUnauthorized || errKind(t, env) != "login-required" {
		t.Errorf("no token on user route: status %d kind %q", status, errKind(t, env))
	}
	// Garbage credential is also 401, not 403.
	status, env = rawV2(t, h.srv.URL, "POST", "/v2/register", "wrong", "{}")
	if status != http.StatusUnauthorized || errKind(t, env) != "login-required" {
		t.Errorf("bad token on user route: status %d kind %q", status, errKind(t, env))
	}
	// Valid user token on an admin route: 403 forbidden.
	status, env = rawV2(t, h.srv.URL, "POST", "/v2/compact", "u-secret", "")
	if status != http.StatusForbidden || errKind(t, env) != "forbidden" {
		t.Errorf("user token on admin route: status %d kind %q", status, errKind(t, env))
	}
	// Admin token passes and the compaction answers in the same request.
	status, env = rawV2(t, h.srv.URL, "POST", "/v2/compact", "a-secret", "")
	if status != http.StatusOK || env.Type != "sync" {
		t.Errorf("admin compact: status %d envelope %+v", status, env)
	}
	// The SDK path: token on the client.
	h.client.Token = "a-secret"
	if _, err := h.client.CompactStore(); err != nil {
		t.Fatalf("admin compact through the SDK: %v", err)
	}
}

// TestRouteAuthTiers walks Routes() of both servers, so a new route is
// covered without editing the test: below its tier a route answers 401
// login-required (no credential) or 403 forbidden (user token on an
// admin route); at its tier the request gets past auth, whatever the
// handler then makes of the empty body.
func TestRouteAuthTiers(t *testing.T) {
	auth := Auth{UserToken: "u-secret", AdminToken: "a-secret"}
	tokens := map[Tier]string{TierGuest: "", TierUser: "u-secret", TierAdmin: "a-secret"}
	h := newV2Harness(t, auth)
	// The follower never tails: Routes() is sorted, so promote stops its
	// tail loop before resync asks that loop for a snapshot, and resync
	// answers at once.
	rs := NewReplicaServer(newFollower(t, h.client, replica.Options{})).WithAuth(auth)
	rsrv := httptest.NewServer(rs)
	defer rsrv.Close()

	// outcome returns the status and, for error envelopes, the kind;
	// stream routes answer raw bytes on success, so only failures are
	// parsed.
	outcome := func(base string, rt Route, token string) (int, string) {
		req, err := http.NewRequest(rt.Method, base+strings.ReplaceAll(rt.Path, "{id}", "1"), strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode < 400 {
			return resp.StatusCode, ""
		}
		var env rawEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s %s: failure body is not an envelope: %v", rt.Method, rt.Path, err)
		}
		return resp.StatusCode, errKind(t, env)
	}

	for _, srv := range []struct {
		base   string
		routes []Route
	}{{h.srv.URL, h.server.Routes()}, {rsrv.URL, rs.Routes()}} {
		if len(srv.routes) == 0 {
			t.Fatal("empty route table")
		}
		for _, rt := range srv.routes {
			name := rt.Method + " " + rt.Path
			if rt.Tier > TierGuest {
				if status, kind := outcome(srv.base, rt, ""); status != http.StatusUnauthorized || kind != "login-required" {
					t.Errorf("%s with no token: status %d kind %q, want 401 login-required", name, status, kind)
				}
			}
			if rt.Tier > TierUser {
				if status, kind := outcome(srv.base, rt, "u-secret"); status != http.StatusForbidden || kind != "forbidden" {
					t.Errorf("%s with user token: status %d kind %q, want 403 forbidden", name, status, kind)
				}
			}
			if status, kind := outcome(srv.base, rt, tokens[rt.Tier]); kind == "login-required" || kind == "forbidden" {
				t.Errorf("%s at its own tier (%s): denied with status %d kind %q", name, rt.Tier, status, kind)
			}
		}
	}

	// Pinned: the replication routes hand out the whole log, so they are
	// admin-tier, and neither a guest nor a user token reads it.
	replication := map[string]bool{
		"GET /v2/replica/manifest":     true,
		"GET /v2/replica/segment/{id}": true,
		"POST /v2/replica/release":     true,
	}
	for _, rt := range h.server.Routes() {
		name := rt.Method + " " + rt.Path
		if !replication[name] {
			continue
		}
		delete(replication, name)
		if rt.Tier != TierAdmin {
			t.Errorf("%s is %s, want admin", name, rt.Tier)
		}
		if status, _ := outcome(h.srv.URL, rt, ""); status != http.StatusUnauthorized {
			t.Errorf("%s as a guest: status %d, want 401", name, status)
		}
		if status, _ := outcome(h.srv.URL, rt, "u-secret"); status != http.StatusForbidden {
			t.Errorf("%s with a user token: status %d, want 403", name, status)
		}
	}
	if len(replication) != 0 {
		t.Errorf("replication routes not registered: %v", replication)
	}
	if p, r := len(h.server.Routes()), len(rs.Routes()); p != 26 || r != 8 {
		t.Errorf("%d primary and %d replica routes, want 26 and 8", p, r)
	}
}

// TestV2Compact: the compaction has run by the time the 200 sync
// envelope arrives, and its result and the store's metrics show it.
func TestV2Compact(t *testing.T) {
	st, err := kvstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, v := range []string{"v1", "v2"} { // v1 is dead weight for the compactor
		if err := st.Put([]byte("k"), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewServer(nil).WithStore(st))
	defer srv.Close()
	before := st.Stats().Compactions

	status, env := rawV2(t, srv.URL, "POST", "/v2/compact", "", "")
	if status != http.StatusOK || env.Type != "sync" {
		t.Fatalf("compact: status %d type %q, want a 200 sync envelope", status, env.Type)
	}
	var res CompactResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Store != "provider" || res.Stats.Compactions <= before {
		t.Fatalf("compact result = %+v, want store provider with compactions > %d", res, before)
	}
	// WithStore installed the store's engine observer: the step is timed.
	raw, err := NewClient(srv.URL, nil).MetricsV2()
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ParseMetrics(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := m.Value("p2drm_kvstore_compact_step_seconds_count", map[string]string{"store": "provider"}); !ok || n < 1 {
		t.Errorf(`p2drm_kvstore_compact_step_seconds_count{store="provider"} = %v, %v; want ≥ 1`, n, ok)
	}
}
