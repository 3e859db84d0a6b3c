package httpapi

import (
	"context"
	"crypto/subtle"
	"errors"
	"net"
	"net/http"
	"os"
	"strings"
)

// Auth is the REST plane's access policy: two shared-secret bearer
// tokens plus unix-socket peer credentials for the admin plane,
// mirroring snapd's guest / authenticated / trusted split.
//
// Open mode: when both tokens are empty, every request resolves to
// TierAdmin. This keeps a default `p2drmd` invocation fully usable;
// tiers bite only once tokens are configured.
//
// With tokens set, a request's tier is the best of:
//
//  1. Peer credentials on a unix socket (see PeerCredConnContext):
//     uid 0 or the daemon's own uid → TierAdmin, any other uid →
//     TierUser. This is how snapd trusts its snapd.socket callers.
//     (serveAdminSocket creates the socket mode 0600, so other uids
//     only appear when the operator deliberately widens it.)
//  2. `Authorization: Bearer <token>` compared (constant-time)
//     against AdminToken then UserToken. Peer credentials never mask
//     this: a non-root socket caller presenting the admin token still
//     reaches TierAdmin.
type Auth struct {
	UserToken  string
	AdminToken string
}

// open reports whether the policy is unconfigured (everything admin).
func (a Auth) open() bool { return a.UserToken == "" && a.AdminToken == "" }

type credState int

const (
	credNone    credState = iota // no credential presented
	credInvalid                  // credential presented but not recognized
	credValid
)

// tierOf resolves the request's access tier and how it got there: the
// best of the peer-credential tier and the bearer-token tier, so a
// socket caller below a route's tier can still present a token.
func (a Auth) tierOf(r *http.Request) (Tier, credState) {
	if a.open() {
		return TierAdmin, credValid
	}
	tier, cred := TierGuest, credNone
	if uid, ok := peerUID(r.Context()); ok {
		if uid == 0 || uid == uint32(os.Getuid()) {
			return TierAdmin, credValid
		}
		tier, cred = TierUser, credValid
	}
	auth := r.Header.Get("Authorization")
	if auth == "" {
		return tier, cred
	}
	tok, ok := strings.CutPrefix(auth, "Bearer ")
	if !ok {
		if cred == credNone {
			cred = credInvalid
		}
		return tier, cred
	}
	if a.AdminToken != "" && subtle.ConstantTimeCompare([]byte(tok), []byte(a.AdminToken)) == 1 {
		return TierAdmin, credValid
	}
	if a.UserToken != "" && subtle.ConstantTimeCompare([]byte(tok), []byte(a.UserToken)) == 1 {
		return TierUser, credValid
	}
	// Unrecognized token: keep whatever the peer credential earned (a
	// valid socket caller stays TierUser → 403, not 401, on denial).
	if cred == credNone {
		cred = credInvalid
	}
	return tier, cred
}

// check enforces a route's minimum tier: nil on success, 401 when no
// valid credential was presented, 403 when the credential is valid but
// the tier is insufficient.
func (a Auth) check(r *http.Request, need Tier) *apiError {
	got, cred := a.tierOf(r)
	if got >= need {
		return nil
	}
	if cred != credValid {
		return &apiError{status: http.StatusUnauthorized, kind: "login-required",
			msg: "httpapi: access denied (missing or invalid credentials)"}
	}
	return &apiError{status: http.StatusForbidden, kind: "forbidden",
		msg: "httpapi: access denied (" + need.String() + " tier required)"}
}

// peerUIDKey carries the unix-socket peer uid through the request
// context.
type peerUIDKey struct{}

// PeerCredConnContext is an http.Server.ConnContext hook: for unix
// sockets it resolves the peer's uid via SO_PEERCRED and stashes it in
// the connection context, where Auth.tierOf finds it. TCP connections
// pass through unchanged.
func PeerCredConnContext(ctx context.Context, c net.Conn) context.Context {
	if uc, ok := c.(*net.UnixConn); ok {
		if uid, err := unixPeerUID(uc); err == nil {
			return context.WithValue(ctx, peerUIDKey{}, uid)
		}
	}
	return ctx
}

func peerUID(ctx context.Context) (uint32, bool) {
	uid, ok := ctx.Value(peerUIDKey{}).(uint32)
	return uid, ok
}

var errNoPeerCred = errors.New("httpapi: peer credentials unavailable")
