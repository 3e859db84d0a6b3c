package httpapi

// Tests for the SDK transport: envelope decoding and the mapping of
// replication error kinds back onto the sentinels followers match.

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"p2drm/internal/kvstore"
	"p2drm/internal/replica"
)

// TestDecodeEnvelopeErrorNeverReachesOut: whatever an error envelope's
// result holds — even fields shaped like the caller's destination — it
// comes back as *APIError and out stays untouched.
func TestDecodeEnvelopeErrorNeverReachesOut(t *testing.T) {
	out := KVValueResponse{Value: "untouched"}
	body := `{"type":"error","status":"Forbidden","status-code":403,` +
		`"result":{"message":"nope","kind":"rejected","found":true,"value":"leaked"}}`
	_, err := decodeEnvelope(strings.NewReader(body), 403, &out)
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
	if _, err := decodeEnvelope(strings.NewReader(body), 403, &out); err == nil || errors.As(err, &apiErr) {
		t.Errorf("result-before-type frame: err = %v, want a bad-envelope error", err)
	}
	if out.Found || out.Value != "untouched" {
		t.Errorf("misordered envelope leaked into out: %+v", out)
	}

	// The happy path decodes the same shape straight into out.
	typ, err := decodeEnvelope(strings.NewReader(`{"type":"sync","status-code":200,"result":{"found":true,"value":"v"}}`), 200, &out)
	if err != nil || typ != "sync" || !out.Found || out.Value != "v" {
		t.Errorf("sync envelope: typ %q out %+v err %v", typ, out, err)
	}
	for _, bad := range []string{``, `[]`, `{}`, `{"type":"sync","result":`, `{"type":"sync","result":{}`, `<html>502</html>`} {
		if _, err := decodeEnvelope(strings.NewReader(bad), 502, nil); err == nil {
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
