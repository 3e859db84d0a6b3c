package httpapi

// Tests for the SDK transport: envelope decoding and the mapping of
// replication error kinds back onto the sentinels followers match.

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/obs"
	"p2drm/internal/replica"
	"p2drm/internal/revocation"
)

// TestDecodeEnvelopeErrorNeverReachesOut: whatever an error envelope's
// result holds — even fields shaped like the caller's destination — it
// comes back as *APIError and out stays untouched.
func TestDecodeEnvelopeErrorNeverReachesOut(t *testing.T) {
	var out struct {
		Found bool   `json:"found"`
		Value string `json:"value"`
	}
	out.Value = "untouched"
	body := `{"type":"error","status":"Forbidden","status-code":403,` +
		`"result":{"message":"nope","kind":"rejected","found":true,"value":"leaked"}}`
	err := decodeEnvelope(strings.NewReader(body), 403, &out)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Kind != "rejected" || apiErr.Message != "nope" || apiErr.StatusCode != 403 {
		t.Fatalf("err = %v, want the envelope's APIError", err)
	}
	if out.Found || out.Value != "untouched" {
		t.Errorf("error envelope leaked into out: %+v", out)
	}

	// The destination is chosen by "type"; a frame that hides it behind
	// the result is refused before anything is decoded.
	body = `{"result":{"found":true,"value":"leaked"},"type":"error","status-code":403}`
	if err := decodeEnvelope(strings.NewReader(body), 403, &out); err == nil || errors.As(err, &apiErr) {
		t.Errorf("result-before-type frame: err = %v, want a bad-envelope error", err)
	}
	if out.Found || out.Value != "untouched" {
		t.Errorf("misordered envelope leaked into out: %+v", out)
	}

	// The happy path decodes the same shape straight into out.
	err = decodeEnvelope(strings.NewReader(`{"type":"sync","status-code":200,"result":{"found":true,"value":"v"}}`), 200, &out)
	if err != nil || !out.Found || out.Value != "v" {
		t.Errorf("sync envelope: out %+v err %v", out, err)
	}
	// Sync and error are the only types; the retired async one is refused.
	for _, bad := range []string{``, `[]`, `{}`, `{"type":"sync","result":`, `{"type":"sync","result":{}`, `<html>502</html>`,
		`{"type":"async","status-code":202,"result":{}}`, `{"type":"async","status-code":202}`} {
		if err := decodeEnvelope(strings.NewReader(bad), 502, nil); err == nil {
			t.Errorf("body %q accepted as an envelope", bad)
		}
	}
}

// TestReplicaErrorMapping: the follower-facing sentinels survive the
// wire by error kind. An unknown store and an unknown pin are both 404,
// and only the second may read as ErrUnknownPin.
func TestReplicaErrorMapping(t *testing.T) {
	store, err := kvstore.OpenWith(t.TempDir(), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	mem, _ := kvstore.Open("")
	srv := httptest.NewServer(NewServer(nil).
		WithReplicaSource("provider", replica.NewSource(store)).
		WithReplicaSource("mem", replica.NewSource(mem)))
	defer srv.Close()
	c := NewClient(srv.URL, nil)

	m, err := c.ReplicaManifest("provider", false)
	if err != nil || len(m.Segments) == 0 {
		t.Fatalf("manifest = %+v, %v", m, err)
	}
	seg := m.Segments[0].ID
	if _, err := c.ReplicaSegment("provider", seg, 0, 1<<20, 0, ""); err != nil {
		t.Fatalf("healthy segment read: %v", err)
	}

	_, err = c.ReplicaSegment("ghost", seg, 0, 1<<20, 0, "")
	var apiErr *APIError
	if errors.Is(err, replica.ErrUnknownPin) || !errors.As(err, &apiErr) ||
		apiErr.Kind != "not-found" || !strings.Contains(err.Error(), "no replica source") {
		t.Errorf("unknown store: err = %v, want not-found naming the missing source", err)
	}
	if _, err := c.ReplicaManifest("ghost", false); !errors.As(err, &apiErr) || apiErr.Kind != "not-found" {
		t.Errorf("unknown store manifest: err = %v, want not-found", err)
	}
	if _, err := c.ReplicaSegment("provider", seg, 0, 1<<20, 0, "no-such-pin"); !errors.Is(err, replica.ErrUnknownPin) {
		t.Errorf("unknown pin: err = %v, want ErrUnknownPin", err)
	}
	if _, err := c.ReplicaSegment("provider", seg+1000, 0, 1<<20, 0, ""); !errors.Is(err, kvstore.ErrSegmentGone) {
		t.Errorf("missing segment: err = %v, want ErrSegmentGone", err)
	}
	if _, err := c.ReplicaManifest("mem", false); !errors.Is(err, kvstore.ErrInMemory) {
		t.Errorf("in-memory store: err = %v, want ErrInMemory", err)
	}
}

// TestRevocationFilterStream: the signed filter travels as the
// provider's cached artefact, byte for byte, with its length announced;
// the SDK parses it into a filter that verifies; downloads of an
// unchanged list share one signature, visible on /v2/metrics.
func TestRevocationFilterStream(t *testing.T) {
	h := newHarness(t)
	want, err := h.prov.RevocationFilterWire()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(h.srv.URL + "/v2/revocation/filter")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/octet-stream" ||
		resp.Header.Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Errorf("status %d, headers %v; want 200, octet-stream, Content-Length %d", resp.StatusCode, resp.Header, len(want))
	}
	if !bytes.Equal(body, want) {
		t.Errorf("body is not the provider's artefact (%d bytes, want %d)", len(body), len(want))
	}

	for i := 0; i < 3; i++ {
		sf, err := h.client.RevocationFilter()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := revocation.VerifyFilter(h.prov.Public(), sf); err != nil {
			t.Fatalf("downloaded filter does not verify: %v", err)
		}
		if !bytes.Equal(sf.Marshal(), want) {
			t.Error("SDK artefact does not re-encode to the provider's bytes")
		}
	}

	raw, err := h.client.MetricsV2()
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ParseMetrics(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for result, want := range map[string]float64{"signed": 1, "cached": 4} {
		got, ok := m.Value("p2drm_revocation_filter_exports_total", map[string]string{"result": result})
		if !ok || got != want {
			t.Errorf("p2drm_revocation_filter_exports_total{result=%q} = %v (present %v), want %v", result, got, ok, want)
		}
	}
}

// TestStreamRouteErrors: a failure on a raw-bytes route still travels as
// an envelope and reaches the caller as *APIError, and a body over the
// client's bound is refused, announced or not.
func TestStreamRouteErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v2/revocation/filter", func(w http.ResponseWriter, r *http.Request) {
		writeEnvErr(w, errInternal(errors.New("revocation: sign filter: injected")))
	})
	mux.HandleFunc("GET /v2/content", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("id") == "announced" {
			w.Header().Set("Content-Length", strconv.Itoa(maxResponseBody+1))
			return
		}
		chunk := make([]byte, 1<<20)
		for i := 0; i <= maxResponseBody/len(chunk); i++ { // chunked: no length announced
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := NewClient(srv.URL, nil)

	_, err := c.RevocationFilter()
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError ||
		apiErr.Kind != "internal" || !strings.Contains(apiErr.Message, "injected") {
		t.Errorf("RevocationFilter err = %v, want the server's internal APIError", err)
	}
	for _, id := range []string{"announced", "chunked"} {
		if blob, err := c.Content(license.ContentID(id)); !errors.Is(err, ErrResponseTooLarge) {
			t.Errorf("Content(%s) = %d bytes, %v; want ErrResponseTooLarge", id, len(blob), err)
		}
	}
}
