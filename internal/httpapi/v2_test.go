package httpapi

// Tests for the envelope surface: envelope error paths (unknown route,
// wrong auth tier, malformed JSON, unknown operation), the auth tier of
// every registered route, async operations over HTTP, and restart
// adoption of a durable registry.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/kvstore"
	"p2drm/internal/ops"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
	"p2drm/internal/smartcard"
)

// v2Harness is newHarness plus registered stores, an attached bank and
// an access policy — the full /v2 surface.
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
	server := NewServer(prov).WithBank(bank).
		WithStoreStats("provider", store).
		WithStoreStats("bank", spent).
		WithAuth(auth)
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

// rawEnvelope is the response frame with the result left raw, for
// tests that inspect the wire format without the SDK.
type rawEnvelope struct {
	Type       string          `json:"type"`
	StatusCode int             `json:"status-code"`
	Operation  string          `json:"operation"`
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
	status, env = rawV2(t, h.srv.URL, "GET", "/v2/operations/doesnotexist", "", "")
	if status != http.StatusNotFound || errKind(t, env) != "operation-not-found" {
		t.Errorf("unknown operation: status %d kind %q", status, errKind(t, env))
	}
	status, env = rawV2(t, h.srv.URL, "POST", "/v2/compact?store=ghost", "", "")
	if status != http.StatusNotFound || errKind(t, env) != "not-found" {
		t.Errorf("unknown compact store: status %d kind %q", status, errKind(t, env))
	}
	// The retired /v1 tree is an unknown route like any other, on both
	// roles.
	rsrv := httptest.NewServer(NewReplicaServer(nil))
	defer rsrv.Close()
	for _, base := range []string{h.srv.URL, rsrv.URL} {
		status, env = rawV2(t, base, "GET", "/v1/catalog", "", "")
		if status != http.StatusNotFound || errKind(t, env) != "not-found" {
			t.Errorf("GET /v1/catalog: status %d kind %q", status, errKind(t, env))
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
	status, env = rawV2(t, h.srv.URL, "POST", "/v2/compact?store=provider", "u-secret", "")
	if status != http.StatusForbidden || errKind(t, env) != "forbidden" {
		t.Errorf("user token on admin route: status %d kind %q", status, errKind(t, env))
	}
	// Admin token passes and starts the operation.
	status, env = rawV2(t, h.srv.URL, "POST", "/v2/compact?store=provider", "a-secret", "")
	if status != http.StatusAccepted || env.Type != "async" || env.Operation == "" {
		t.Errorf("admin compact: status %d envelope %+v", status, env)
	}
	// The SDK path: token on the client.
	h.client.Token = "a-secret"
	if _, err := h.client.Operations(); err != nil {
		t.Fatalf("admin list operations: %v", err)
	}
	// The user tier can poll operations but not delete them.
	h.client.Token = "u-secret"
	opsList, err := h.client.Operations()
	if err != nil || len(opsList) == 0 {
		t.Fatalf("user list operations: %v (%d ops)", err, len(opsList))
	}
	err = h.client.DeleteOperation(opsList[0].ID)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusForbidden {
		t.Fatalf("user delete operation: %v", err)
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
	rsrv := httptest.NewServer(NewReplicaServer(nil).WithAuth(auth))
	defer rsrv.Close()
	h := newV2Harness(t, auth)

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
	}{{h.srv.URL, h.server.Routes()}, {rsrv.URL, NewReplicaServer(nil).Routes()}} {
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
}

func TestV2AsyncCompact(t *testing.T) {
	h := newV2Harness(t, Auth{})
	op, err := h.client.CompactStore("provider")
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != "compact" || op.Status.Terminal() && op.Status != ops.StatusDone {
		t.Fatalf("202 operation snapshot: %+v", op)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	op, err = h.client.WaitOperation(ctx, op.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	var res CompactResult
	if err := OperationResult(op, &res); err != nil {
		t.Fatal(err)
	}
	if res.Store != "provider" {
		t.Fatalf("compact result = %+v", res)
	}
	if !op.Status.Terminal() || op.Status != ops.StatusDone {
		t.Fatalf("compact op status = %s", op.Status)
	}
}

func TestV2AsyncRevocationRebuild(t *testing.T) {
	h := newV2Harness(t, Auth{})
	op, err := h.client.RebuildRevocationFilter()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	op, err = h.client.WaitOperation(ctx, op.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	var res RebuildResult
	if err := OperationResult(op, &res); err != nil {
		t.Fatal(err)
	}
	if res.Generation == 0 {
		t.Fatalf("rebuild generation = %d, want > 0", res.Generation)
	}
}

// TestV2RestartAdoption is the HTTP-level durable-registry contract: a
// daemon dies with operations in flight; the next daemon over the same
// ops store re-runs the idempotent one and marks the other aborted,
// both visible at GET /v2/operations/{id}.
func TestV2RestartAdoption(t *testing.T) {
	dir := t.TempDir()
	opsStore, err := kvstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := ops.New(opsStore)
	block := make(chan struct{}) // never closed: the "crash" leaves both running
	park := func(ctx context.Context, hd *ops.Handle) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, errors.New("interrupted")
	}
	resumable, err := r1.Start("compact", "compaction cut short", compactParams{Store: "provider"}, park)
	if err != nil {
		t.Fatal(err)
	}
	// A kind this daemon defines no resumer for (here one a previous
	// release ran): adopted as aborted, never re-run.
	orphan, err := r1.Start("bulk-issuance", "batch cut short", map[string]int{"items": 7}, park)
	if err != nil {
		t.Fatal(err)
	}
	if err := opsStore.Close(); err != nil { // the crash
		t.Fatal(err)
	}

	// Restart: a fresh server adopts the durable registry.
	opsStore2, err := kvstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { opsStore2.Close() })
	h := newV2Harness(t, Auth{})
	reg := ops.New(opsStore2)
	h.server.WithOps(reg)
	t.Cleanup(reg.Close)
	resumed, aborted := h.server.ResumeOps()
	if resumed != 1 || aborted != 1 {
		t.Fatalf("ResumeOps = (%d, %d), want (1, 1)", resumed, aborted)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	op, err := h.client.WaitOperation(ctx, resumable.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if op.Status != ops.StatusDone || !op.Resumed || op.Kind != "compact" {
		t.Fatalf("resumed compact over HTTP = %+v", op)
	}
	var res CompactResult
	if err := OperationResult(op, &res); err != nil || res.Store != "provider" {
		t.Fatalf("resumed compact result = %+v, %v", res, err)
	}
	ab, err := h.client.Operation(orphan.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Status != ops.StatusAborted || ab.Error == "" {
		t.Fatalf("orphan over HTTP = %+v", ab)
	}

	// Terminal operations can be deleted; running ones (none left) 404
	// after.
	if err := h.client.DeleteOperation(ab.ID); err != nil {
		t.Fatal(err)
	}
	_, err = h.client.Operation(ab.ID)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Kind != "operation-not-found" {
		t.Fatalf("deleted op lookup: %v", err)
	}

	r1.Close() // release parked goroutines; late persists hit the closed store and are dropped
}
