package httpapi

// The client SDK's transport: one request helper that attaches the
// bearer token, one envelope decoder that parses each response body in
// a single pass, APIError carrying the server's error kind, and the
// admin actions.

import (
	"bytes"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/license"
)

// Client is the SDK speaking to a Server or ReplicaServer. It is safe for
// concurrent use. It remembers what the server publishes to everyone and
// does not change — the bank's coin key, denomination keys, the current
// challenge beacon — so it holds a mutex: use it through the pointer
// NewClient returns and do not copy it after first use. Two Clients share
// no state, and nothing a Client remembers was issued to it alone.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	Group   *schnorr.Group
	// Token is the bearer credential sent on every request (empty for
	// guest access).
	Token string

	// mu guards the caches below; it is never held across a request.
	mu          sync.Mutex
	coinPub     *rsa.PublicKey                     // WithdrawCoins
	denoms      map[license.ContentID]denomination // Denomination
	beacon      string                             // Challenge
	beaconUntil time.Time                          // beacon is the current one before this
}

// NewClient builds a client; group must match the server's.
func NewClient(baseURL string, g *schnorr.Group) *Client {
	return &Client{BaseURL: baseURL, HTTP: http.DefaultClient, Group: g}
}

// APIError is an error envelope surfaced as a Go error, keeping the
// machine-readable kind so callers can switch on it.
type APIError struct {
	StatusCode int
	Kind       string
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("httpapi: server: %s (%s, status %d)", e.Message, e.Kind, e.StatusCode)
}

// send issues one request with the bearer token attached (in, when
// non-nil, is the JSON body) and returns the open response; the caller
// closes its body.
func (c *Client) send(method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.Token)
	}
	return c.HTTP.Do(req)
}

// roundTrip is the one JSON transport: it sends the request and decodes
// the envelope, the result going straight into out (nil discards it),
// and reports the HTTP status. An error envelope comes back as
// *APIError and never touches out.
func (c *Client) roundTrip(method, path string, in, out any) (int, error) {
	resp, err := c.send(method, path, in)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, decodeEnvelope(&boundedBody{r: resp.Body}, resp.StatusCode, out)
}

// call is roundTrip for callers that need only the result.
func (c *Client) call(method, path string, in, out any) error {
	_, err := c.roundTrip(method, path, in, out)
	return err
}

// stream issues a GET on a raw-bytes route and returns the open 200
// response for the caller to read and close; any other status carries
// an error envelope.
func (c *Client) stream(path string) (*http.Response, error) {
	resp, err := c.send("GET", path, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer resp.Body.Close()
	if err := decodeEnvelope(&boundedBody{r: resp.Body}, resp.StatusCode, nil); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("httpapi: status %d", resp.StatusCode)
}

// maxResponseBody bounds what the SDK reads from one response, JSON or
// raw bytes — the client-side half of the server's maxRequestBody: a
// hostile or broken server cannot make a device allocate without limit.
// The signed revocation filter for ten million serials is ≈19.7 MB.
const maxResponseBody = 64 << 20

// ErrResponseTooLarge reports a response body over maxResponseBody.
var ErrResponseTooLarge = fmt.Errorf("httpapi: response body over the client's %d MiB bound", maxResponseBody>>20)

// boundedBody reads a response body and fails with ErrResponseTooLarge
// once more than maxResponseBody bytes of it have arrived.
type boundedBody struct {
	r    io.Reader
	read int64
}

func (b *boundedBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.read += int64(n)
	if b.read > maxResponseBody {
		return n, ErrResponseTooLarge
	}
	return n, err
}

// readBody reads and closes a stream response's body, at most
// maxResponseBody bytes of it.
func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	size := resp.ContentLength
	if size > maxResponseBody {
		return nil, ErrResponseTooLarge
	}
	// With room for the announced length plus one more read, ReadFrom
	// reaches EOF without growing; an absent length (-1) starts small.
	buf := bytes.NewBuffer(make([]byte, 0, max(size, 0)+bytes.MinRead))
	if _, err := buf.ReadFrom(&boundedBody{r: resp.Body}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeEnvelope reads one envelope from body in a single pass: it
// walks the frame's keys and decodes "result" directly into its
// destination — out for sync, an *APIError for error — so a large
// result is never buffered as raw JSON and parsed a second time. The
// destination is chosen by "type", which the server always writes
// first; a frame that puts "result" ahead of it, or names another type,
// is rejected rather than guessed at.
func decodeEnvelope(body io.Reader, status int, out any) error {
	bad := func(err error) error {
		if errors.Is(err, ErrResponseTooLarge) {
			return err
		}
		return fmt.Errorf("httpapi: bad envelope (status %d): %w", status, err)
	}
	var typ string
	dec := json.NewDecoder(body)
	if t, err := dec.Token(); err != nil {
		return bad(err)
	} else if t != json.Delim('{') {
		return bad(errors.New("not a JSON object"))
	}
	var (
		er   errorResult
		skip json.RawMessage // keys the client has no use for
	)
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return bad(err)
		}
		var dst any = &skip
		switch key {
		case "type":
			dst = &typ
		case "result":
			switch {
			case typ == "":
				return bad(errors.New("result precedes type"))
			case typ == "error":
				dst = &er
			case typ == "sync" && out != nil:
				dst = out
			}
		}
		if err := dec.Decode(dst); err != nil {
			return bad(err)
		}
	}
	if _, err := dec.Token(); err != nil { // the closing brace: a cut-off body ends More() too
		return bad(err)
	}
	switch typ {
	case "sync":
		return nil
	case "error":
		return &APIError{StatusCode: status, Kind: er.Kind, Message: er.Message}
	}
	return bad(fmt.Errorf("unknown type %q", typ))
}

// --- admin actions (admin tier); each answers when its work is done ---

// adminPost runs one admin action and decodes its result.
func adminPost[T any](c *Client, path string) (*T, error) {
	var res T
	if err := c.call("POST", path, nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// CompactStore runs a full compaction of the daemon's store.
func (c *Client) CompactStore() (*CompactResult, error) {
	return adminPost[CompactResult](c, "/v2/compact")
}

// Promote opens a replica daemon's store for writes.
func (c *Client) Promote() (*PromoteResult, error) {
	return adminPost[PromoteResult](c, "/v2/replica/promote")
}

// ResyncReplica re-bootstraps a replica daemon's store from a fresh
// snapshot of the primary's.
func (c *Client) ResyncReplica() (*ResyncResult, error) {
	return adminPost[ResyncResult](c, "/v2/replica/resync")
}
