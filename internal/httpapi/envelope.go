package httpapi

// The /v2/ response envelope, modeled on snapd's REST design. Every
// /v2/ endpoint answers one of three envelope types:
//
//	{"type":"sync","status":"OK","status-code":200,"result":...}
//	{"type":"async","status":"Accepted","status-code":202,
//	 "operation":"/v2/operations/<id>","result":{...operation doc...}}
//	{"type":"error","status":"...","status-code":4xx|5xx,
//	 "result":{"message":"...","kind":"..."}}
//
// A 202 async response also sets the Location header to the operation
// URL; the embedded operation document is a convenience snapshot — the
// authoritative state is always GET /v2/operations/{id}.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/obs"
	"p2drm/internal/ops"
	"p2drm/internal/provider"
)

// Tier is a route's minimum access level (snapd's guest /
// authenticated / trusted split).
type Tier int

// Guest < User < Admin; a request's resolved tier must be >= the
// route's tier.
const (
	TierGuest Tier = iota
	TierUser
	TierAdmin
)

// String names the tier as documented in docs/rest.md.
func (t Tier) String() string {
	switch t {
	case TierUser:
		return "user"
	case TierAdmin:
		return "admin"
	default:
		return "guest"
	}
}

// RouteKind classifies a route's response shape for the API reference.
type RouteKind string

// KindSync answers inline; KindAsync answers 202 + operation URL;
// KindStream answers raw bytes (content blobs, WAL segments).
const (
	KindSync   RouteKind = "sync"
	KindAsync  RouteKind = "async"
	KindStream RouteKind = "stream"
)

// Route is one registered route's metadata. The route table is
// exported (Routes) so the docs drift test can diff it against
// docs/rest.md.
type Route struct {
	Method string
	Path   string
	Tier   Tier
	Kind   RouteKind
}

// apiError is a transport-level error: an HTTP status, a stable
// machine-readable kind, and a human message, rendered as an error
// envelope.
type apiError struct {
	status int
	kind   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// errBadRequest is a request the handler could not decode. A body cut
// off by the maxRequestBody bound is the one decode failure with its own
// status and kind, so a client can tell "split the batch" from "fix the
// JSON".
func errBadRequest(err error) *apiError {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &apiError{status: http.StatusRequestEntityTooLarge, kind: "request-too-large", msg: err.Error()}
	}
	return &apiError{status: http.StatusBadRequest, kind: "bad-request", msg: err.Error()}
}

func errNotFound(err error) *apiError {
	return &apiError{status: http.StatusNotFound, kind: "not-found", msg: err.Error()}
}

// errRejected is a protocol-level refusal (bad proof, double spend,
// unregistered pseudonym): HTTP 403, but with its own kind so clients
// can tell it from an authorization failure. The two refusals a client
// can repair by itself have kinds of their own (refusalKind).
func errRejected(err error) *apiError {
	kind := refusalKind(err)
	if kind == "" {
		kind = "rejected"
	}
	return &apiError{status: http.StatusForbidden, kind: kind, msg: err.Error()}
}

// The refusals that tell a client what it remembers is out of date:
// stale-key — the request named a key the server does not sign with, and
// nothing was debited, consumed or retired: fetch the key again and start
// over; bad-nonce — the nonce is spent, expired or made under a beacon
// that is not this process's: ask for a challenge again.
const (
	kindStaleKey = "stale-key"
	kindBadNonce = "bad-nonce"
)

// refusalKind is the kind of such a refusal, "" for any other error. The
// batch routes report it per slot.
func refusalKind(err error) string {
	switch {
	case errors.Is(err, rsablind.ErrStaleKey):
		return kindStaleKey
	case errors.Is(err, provider.ErrBadNonce):
		return kindBadNonce
	}
	return ""
}

// hasKind reports whether an SDK call failed with an error envelope of
// the given kind.
func hasKind(err error, kind string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Kind == kind
}

func errInternal(err error) *apiError {
	return &apiError{status: http.StatusInternalServerError, kind: "internal", msg: err.Error()}
}

// envelope is the /v2/ wire frame.
type envelope struct {
	Type       string `json:"type"`
	Status     string `json:"status"`
	StatusCode int    `json:"status-code"`
	Operation  string `json:"operation,omitempty"`
	Result     any    `json:"result,omitempty"`
}

// errorResult is the error envelope's result payload.
type errorResult struct {
	Message string `json:"message"`
	Kind    string `json:"kind,omitempty"`
}

// OperationURL returns the pollable URL for an operation ID.
func OperationURL(id string) string { return "/v2/operations/" + id }

func writeEnvelope(w http.ResponseWriter, env envelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(env.StatusCode)
	json.NewEncoder(w).Encode(env)
}

// writeSync answers a synchronous /v2/ request.
func writeSync(w http.ResponseWriter, result any) {
	writeEnvelope(w, envelope{
		Type: "sync", Status: http.StatusText(http.StatusOK),
		StatusCode: http.StatusOK, Result: result,
	})
}

// writeAsync answers 202 Accepted with the operation document and its
// pollable URL (also in the Location header).
func writeAsync(w http.ResponseWriter, op ops.Operation) {
	url := OperationURL(op.ID)
	w.Header().Set("Location", url)
	writeEnvelope(w, envelope{
		Type: "async", Status: http.StatusText(http.StatusAccepted),
		StatusCode: http.StatusAccepted, Operation: url, Result: op,
	})
}

// writeEnvErr answers any /v2/ failure.
func writeEnvErr(w http.ResponseWriter, e *apiError) {
	writeEnvelope(w, envelope{
		Type: "error", Status: http.StatusText(e.status), StatusCode: e.status,
		Result: errorResult{Message: e.msg, Kind: e.kind},
	})
}

// endpoint is a handler core: it decodes the request, runs the action,
// and returns either a result payload or an apiError for the envelope
// writer.
type endpoint func(r *http.Request) (any, *apiError)

// api is the shared REST-plane chassis embedded by Server and
// ReplicaServer: the mux, the route table, the auth policy, the
// operations registry, and the observability plane every route reports
// into (obs.go).
type api struct {
	mux    *http.ServeMux
	auth   Auth
	ops    *ops.Registry
	obs    *obs.Plane
	routes []Route

	httpReqs *obs.CounterVec
	httpLat  *obs.HistogramVec
}

func newAPI() api {
	p := obs.NewPlane()
	return api{
		mux: http.NewServeMux(), ops: ops.New(nil), obs: p,
		httpReqs: p.Reg.CounterVec("p2drm_http_requests_total",
			"HTTP requests served, by method, route pattern and status.",
			"method", "route", "status"),
		httpLat: p.Reg.HistogramVec("p2drm_http_request_duration_seconds",
			"HTTP request latency, by method, route pattern and status.",
			"method", "route", "status"),
	}
}

// v2 registers an enveloped synchronous route with tier enforcement.
func (a *api) v2(method, path string, tier Tier, ep endpoint) {
	a.v2raw(method, path, tier, KindSync, func(w http.ResponseWriter, r *http.Request) {
		res, apiErr := ep(r)
		if apiErr != nil {
			writeEnvErr(w, apiErr)
			return
		}
		writeSync(w, res)
	})
}

// v2raw registers a route with tier enforcement and a custom writer
// (async 202 responses and raw byte streams).
func (a *api) v2raw(method, path string, tier Tier, kind RouteKind, h http.HandlerFunc) {
	a.routes = append(a.routes, Route{Method: method, Path: path, Tier: tier, Kind: kind})
	a.mux.HandleFunc(method+" "+path, a.instrument(method, path, tier, h))
}

// Routes returns the registered route table sorted by path then
// method — the machine-readable surface the docs drift test checks
// against docs/rest.md.
func (a *api) Routes() []Route {
	out := append([]Route(nil), a.routes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].Method < out[j].Method
	})
	return out
}

// serveHTTP dispatches with envelope-shaped 404/405 for every path no
// route matches (the stdlib mux would write text/plain).
func (a *api) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if _, pattern := a.mux.Handler(r); pattern == "" {
		if a.pathKnown(r.URL.Path) {
			writeEnvErr(w, &apiError{
				status: http.StatusMethodNotAllowed, kind: "method-not-allowed",
				msg: fmt.Sprintf("httpapi: method %s not allowed on %s", r.Method, r.URL.Path),
			})
		} else {
			writeEnvErr(w, errNotFound(errors.New("httpapi: unknown route "+r.URL.Path)))
		}
		return
	}
	a.mux.ServeHTTP(w, r)
}

// pathKnown reports whether any registered route matches path
// under some method ({param} segments match any non-empty segment).
func (a *api) pathKnown(path string) bool {
	for _, rt := range a.routes {
		if pathMatches(rt.Path, path) {
			return true
		}
	}
	return false
}

func pathMatches(pattern, path string) bool {
	ps := strings.Split(pattern, "/")
	qs := strings.Split(path, "/")
	if len(ps) != len(qs) {
		return false
	}
	for i := range ps {
		if strings.HasPrefix(ps[i], "{") && strings.HasSuffix(ps[i], "}") {
			if qs[i] == "" {
				return false
			}
			continue
		}
		if ps[i] != qs[i] {
			return false
		}
	}
	return true
}

// --- operations surface (registered by both servers) ---

// registerOpsRoutes mounts the operations registry: list, poll, and
// admin-only delete of terminal operations.
func (a *api) registerOpsRoutes() {
	a.v2("GET", "/v2/operations", TierUser, a.epOpsList)
	a.v2("GET", "/v2/operations/{id}", TierUser, a.epOpGet)
	a.v2("DELETE", "/v2/operations/{id}", TierAdmin, a.epOpDelete)
}

// OperationsResponse answers GET /v2/operations.
type OperationsResponse struct {
	Operations []ops.Operation `json:"operations"`
}

func (a *api) epOpsList(r *http.Request) (any, *apiError) {
	return OperationsResponse{Operations: a.ops.List()}, nil
}

func (a *api) epOpGet(r *http.Request) (any, *apiError) {
	id := r.PathValue("id")
	op, ok := a.ops.Get(id)
	if !ok {
		return nil, &apiError{status: http.StatusNotFound, kind: "operation-not-found",
			msg: fmt.Sprintf("httpapi: unknown operation %q", id)}
	}
	return op, nil
}

func (a *api) epOpDelete(r *http.Request) (any, *apiError) {
	id := r.PathValue("id")
	if _, ok := a.ops.Get(id); !ok {
		return nil, &apiError{status: http.StatusNotFound, kind: "operation-not-found",
			msg: fmt.Sprintf("httpapi: unknown operation %q", id)}
	}
	if err := a.ops.Delete(id); err != nil {
		return nil, &apiError{status: http.StatusConflict, kind: "conflict", msg: err.Error()}
	}
	return map[string]string{"status": "deleted"}, nil
}

// startOperation launches task on the registry and answers 202.
func (a *api) startOperation(w http.ResponseWriter, kind, summary string, params any, task ops.Task) {
	op, err := a.ops.Start(kind, summary, params, task)
	if err != nil {
		writeEnvErr(w, errInternal(err))
		return
	}
	writeAsync(w, op)
}
