package httpapi

// Replication transport: the primary side serves a store's WAL segments
// to followers, the follower side serves read-only traffic plus
// replication status. Segment bytes travel as raw octet-stream bodies
// with identity metadata in X-Replica-* headers — they are CRC-framed
// log records, so JSON/base64 framing would only add bulk.
//
// Promotion and resync answer in their own request. Source errors the
// follower reacts to cross the wire as their own envelope error kinds
// (replicaAPIError), which the client maps back to the sentinel — a
// compaction-invalidated segment read comes back as
// kvstore.ErrSegmentGone, so the follower's snapshot fallback triggers
// exactly as it does in-process.

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/replica"
	"p2drm/internal/revocation"
)

// WithReplicaSource registers a replication source under name (matching
// the WithStoreStats name so followers address stores consistently).
// Call before serving starts.
func (s *Server) WithReplicaSource(name string, src *replica.Source) *Server {
	if s.replicas == nil {
		s.replicas = make(map[string]*replica.Source)
	}
	s.replicas[name] = src
	return s
}

func (s *Server) replicaSource(r *http.Request) (*replica.Source, *apiError) {
	name := r.URL.Query().Get("store")
	src := s.replicas[name]
	if src == nil {
		return nil, errNotFound(fmt.Errorf("httpapi: no replica source %q", name))
	}
	return src, nil
}

func (s *Server) epReplicaManifest(r *http.Request) (any, *apiError) {
	src, apiErr := s.replicaSource(r)
	if apiErr != nil {
		return nil, apiErr
	}
	m, err := src.Manifest(r.URL.Query().Get("pin") == "1")
	if err != nil {
		return nil, replicaAPIError(err)
	}
	return m, nil
}

// Segment identity/continuation headers; the body is raw log bytes.
const (
	hdrEpoch   = "X-Replica-Epoch"
	hdrSealed  = "X-Replica-Sealed"
	hdrGen     = "X-Replica-Gen"
	hdrTotal   = "X-Replica-Total"
	hdrCRC     = "X-Replica-Crc"
	hdrNext    = "X-Replica-Next"
	hdrNextGen = "X-Replica-Next-Gen"
	hdrActive  = "X-Replica-Active"
)

// serveReplicaSegment streams one segment chunk.
func (s *Server) serveReplicaSegment(w http.ResponseWriter, r *http.Request) {
	src, apiErr := s.replicaSource(r)
	if apiErr != nil {
		writeEnvErr(w, apiErr)
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeEnvErr(w, errBadRequest(fmt.Errorf("httpapi: bad segment id: %w", err)))
		return
	}
	q := r.URL.Query()
	from, err1 := strconv.ParseInt(q.Get("from"), 10, 64)
	max, err2 := strconv.ParseInt(q.Get("max"), 10, 64)
	var gen uint64
	var err3 error
	if g := q.Get("gen"); g != "" {
		gen, err3 = strconv.ParseUint(g, 10, 64)
	}
	if err1 != nil || err2 != nil || err3 != nil {
		writeEnvErr(w, errBadRequest(errors.New("httpapi: bad from/max/gen")))
		return
	}
	ch, err := src.Segment(id, from, max, gen, q.Get("pin"))
	if err != nil {
		writeEnvErr(w, replicaAPIError(err))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(hdrEpoch, ch.Epoch)
	h.Set(hdrSealed, strconv.FormatBool(ch.Sealed))
	h.Set(hdrGen, strconv.FormatUint(ch.Gen, 10))
	h.Set(hdrTotal, strconv.FormatInt(ch.Total, 10))
	h.Set(hdrCRC, strconv.FormatUint(uint64(ch.CRC32), 10))
	h.Set(hdrNext, strconv.FormatUint(ch.NextID, 10))
	h.Set(hdrNextGen, strconv.FormatUint(ch.NextGen, 10))
	h.Set(hdrActive, strconv.FormatUint(ch.ActiveID, 10))
	w.WriteHeader(http.StatusOK)
	w.Write(ch.Data)
}

func (s *Server) epReplicaRelease(r *http.Request) (any, *apiError) {
	src, apiErr := s.replicaSource(r)
	if apiErr != nil {
		return nil, apiErr
	}
	src.Release(r.URL.Query().Get("pin")) //nolint:errcheck
	return map[string]string{"status": "released"}, nil
}

// PrimaryReplicaStatus is one store's primary-side replication view.
type PrimaryReplicaStatus struct {
	Epoch      string `json:"epoch"`
	Segments   int    `json:"segments"`
	DurableSeg uint64 `json:"durable_seg"`
	DurableOff int64  `json:"durable_off"`
	Pins       int    `json:"pins"`
}

// ReplicaStatusResponse is the replica/status payload from either role.
type ReplicaStatusResponse struct {
	Role    string                          `json:"role"` // "primary" or "replica"
	Stores  map[string]PrimaryReplicaStatus `json:"stores,omitempty"`
	Replica map[string]replica.Status       `json:"replica,omitempty"`
}

func (s *Server) epReplicaStatus(r *http.Request) (any, *apiError) {
	resp := ReplicaStatusResponse{Role: "primary", Stores: make(map[string]PrimaryReplicaStatus, len(s.replicas))}
	for name, src := range s.replicas {
		st := PrimaryReplicaStatus{Epoch: src.Epoch(), Pins: src.Pins()}
		// Stats gives the segment count without building a manifest
		// (which copies per-segment metadata under the log mutex).
		st.Segments = src.Store().Stats().Segments
		st.DurableSeg, st.DurableOff = src.Store().DurableOffset()
		resp.Stores[name] = st
	}
	return resp, nil
}

// Error kinds of the source sentinels a follower reacts to. The client
// maps them back by kind (replicaErr): a status alone cannot tell an
// unknown pin from an unknown store, both 404.
const (
	kindSegmentGone = "segment-gone"
	kindInMemory    = "in-memory"
	kindUnknownPin  = "unknown-pin"
)

// replicaAPIError maps source errors onto envelope errors the client
// can map back losslessly.
func replicaAPIError(err error) *apiError {
	switch {
	case errors.Is(err, kvstore.ErrSegmentGone):
		return &apiError{status: http.StatusGone, kind: kindSegmentGone, msg: err.Error()}
	case errors.Is(err, kvstore.ErrInMemory):
		return &apiError{status: http.StatusNotImplemented, kind: kindInMemory, msg: err.Error()}
	case errors.Is(err, replica.ErrUnknownPin):
		return &apiError{status: http.StatusNotFound, kind: kindUnknownPin, msg: err.Error()}
	default:
		return errInternal(err)
	}
}

// ContainsResponse answers /v2/revocation/contains on either role.
type ContainsResponse struct {
	Found bool `json:"found"`
}

// --- follower-side server ---

// ReplicaServer is the HTTP surface of a follower daemon: revocation
// lookups against the local replica, replication status, promotion and
// resync. Writes are rejected until promotion.
type ReplicaServer struct {
	api
	followers map[string]*replica.Follower
}

// NewReplicaServer builds the follower handler tree over the given
// followers, keyed by store name; p2drmd runs one, "provider".
func NewReplicaServer(followers map[string]*replica.Follower) *ReplicaServer {
	rs := &ReplicaServer{followers: followers, api: newAPI()}
	rs.v2("POST", "/v2/kv/put", TierUser, rs.epPut)
	rs.v2("GET", "/v2/stats", TierGuest, rs.epStats)
	rs.v2("GET", "/v2/replica/status", TierGuest, rs.epStatus)
	rs.v2("GET", "/v2/revocation/contains", TierGuest, rs.epContains)
	rs.v2("POST", "/v2/replica/promote", TierAdmin, rs.epPromote)
	rs.v2("POST", "/v2/replica/resync", TierAdmin, rs.epResync)
	rs.registerObsRoutes()
	for name, f := range followers {
		registerFollowerMetrics(rs.obs.Reg, name, f)
		registerFollowerHealth(rs.obs.Health, name, f)
	}
	return rs
}

// WithAuth installs the access policy (see Auth). Call before serving
// starts; the zero policy leaves the API open.
func (rs *ReplicaServer) WithAuth(a Auth) *ReplicaServer {
	rs.auth = a
	return rs
}

// ServeHTTP implements http.Handler.
func (rs *ReplicaServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { rs.api.serveHTTP(w, r) }

func (rs *ReplicaServer) follower(r *http.Request) (*replica.Follower, *apiError) {
	name := r.URL.Query().Get("store")
	f := rs.followers[name]
	if f == nil {
		return nil, errNotFound(fmt.Errorf("httpapi: no replica for store %q", name))
	}
	return f, nil
}

// KVPutRequest is a follower-side write attempt (rejected until the
// follower is promoted).
type KVPutRequest struct {
	Key   string `json:"key"`   // base64
	Value string `json:"value"` // base64
}

func (rs *ReplicaServer) epPut(r *http.Request) (any, *apiError) {
	f, apiErr := rs.follower(r)
	if apiErr != nil {
		return nil, apiErr
	}
	var req KVPutRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, errBadRequest(err)
	}
	key, err1 := unb64(req.Key)
	val, err2 := unb64(req.Value)
	if err1 != nil || err2 != nil {
		return nil, errBadRequest(errors.New("httpapi: bad base64 field"))
	}
	if err := f.Put(key, val); err != nil {
		if errors.Is(err, replica.ErrReadOnly) {
			return nil, &apiError{status: http.StatusForbidden, kind: "read-only", msg: err.Error()}
		}
		return nil, errInternal(err)
	}
	return map[string]string{"status": "ok"}, nil
}

func (rs *ReplicaServer) epStats(r *http.Request) (any, *apiError) {
	resp := StatsResponse{Stores: make(map[string]kvstore.Stats, len(rs.followers))}
	for name, f := range rs.followers {
		resp.Stores[name] = f.Stats()
	}
	return resp, nil
}

func (rs *ReplicaServer) epStatus(r *http.Request) (any, *apiError) {
	resp := ReplicaStatusResponse{Role: "replica", Replica: make(map[string]replica.Status, len(rs.followers))}
	for name, f := range rs.followers {
		resp.Replica[name] = f.Status()
	}
	return resp, nil
}

// PromoteResult reports the post-promotion role per store.
type PromoteResult struct {
	Promoted []string `json:"promoted"`
}

// epPromote promotes every follower. Promotion is idempotent: a store
// already promoted promotes again as a no-op, so after a failure the
// admin re-sends the request and the stores that are left follow.
func (rs *ReplicaServer) epPromote(r *http.Request) (any, *apiError) {
	var res PromoteResult
	for name, f := range rs.followers {
		if _, err := f.Promote(); err != nil {
			return nil, errInternal(fmt.Errorf("httpapi: promote %s (promoted so far: %v): %w", name, res.Promoted, err))
		}
		res.Promoted = append(res.Promoted, name)
	}
	return res, nil
}

// ResyncResult reports per-store resync outcomes.
type ResyncResult struct {
	Resynced []string          `json:"resynced"`
	Errors   map[string]string `json:"errors,omitempty"`
}

// epResync forces a full snapshot re-bootstrap of each follower
// (?store=NAME limits it to one), waiting under the request context. A
// partial failure answers with the per-store errors; a failure of every
// store is an error envelope.
func (rs *ReplicaServer) epResync(r *http.Request) (any, *apiError) {
	only := r.URL.Query().Get("store")
	if only != "" && rs.followers[only] == nil {
		return nil, errNotFound(fmt.Errorf("httpapi: no replica for store %q", only))
	}
	res := ResyncResult{Errors: make(map[string]string)}
	for name, f := range rs.followers {
		if only != "" && name != only {
			continue
		}
		if err := f.Resync(r.Context()); err != nil {
			res.Errors[name] = err.Error()
		} else {
			res.Resynced = append(res.Resynced, name)
		}
	}
	if len(res.Errors) == 0 {
		res.Errors = nil
	} else if len(res.Resynced) == 0 {
		return nil, errInternal(fmt.Errorf("httpapi: resync failed for all %d stores: %v", len(res.Errors), res.Errors))
	}
	return res, nil
}

// epContains answers revocation lookups from the replicated provider
// store: exact (not Bloom) containment via the store key the revocation
// list uses on the primary.
func (rs *ReplicaServer) epContains(r *http.Request) (any, *apiError) {
	name := r.URL.Query().Get("store")
	if name == "" {
		name = "provider"
	}
	f := rs.followers[name]
	if f == nil {
		return nil, errNotFound(fmt.Errorf("httpapi: no replica for store %q", name))
	}
	raw, err := base64.URLEncoding.DecodeString(r.URL.Query().Get("serial"))
	var serial license.Serial
	if err != nil || len(raw) != len(serial) {
		return nil, errBadRequest(errors.New("httpapi: bad serial (want base64url of exact length)"))
	}
	copy(serial[:], raw)
	return ContainsResponse{Found: f.Has(revocation.StoreKey(serial))}, nil
}

// --- client SDK ---

// replicaErr maps the replication error kinds back onto the sentinels
// the follower matches with errors.Is.
func replicaErr(err error) error {
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Kind {
		case kindSegmentGone:
			return kvstore.ErrSegmentGone
		case kindInMemory:
			return kvstore.ErrInMemory
		case kindUnknownPin:
			return replica.ErrUnknownPin
		}
	}
	return err
}

// ReplicaManifest fetches a store's segment manifest; pin=true leases
// the sealed set against compaction until ReplicaRelease (or TTL).
func (c *Client) ReplicaManifest(store string, pin bool) (*replica.Manifest, error) {
	p := "/v2/replica/manifest?store=" + url.QueryEscape(store)
	if pin {
		p += "&pin=1"
	}
	var m replica.Manifest
	if err := c.call("GET", p, nil, &m); err != nil {
		return nil, replicaErr(err)
	}
	return &m, nil
}

// ReplicaSegment fetches raw segment bytes; see replica.Fetcher.
func (c *Client) ReplicaSegment(store string, id uint64, from, max int64, wantGen uint64, pinID string) (*replica.Chunk, error) {
	p := fmt.Sprintf("/v2/replica/segment/%d?store=%s&from=%d&max=%d&gen=%d",
		id, url.QueryEscape(store), from, max, wantGen)
	if pinID != "" {
		p += "&pin=" + url.QueryEscape(pinID)
	}
	resp, err := c.stream(p)
	if err != nil {
		return nil, replicaErr(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	h := resp.Header
	sealed, _ := strconv.ParseBool(h.Get(hdrSealed))
	gen, err1 := strconv.ParseUint(h.Get(hdrGen), 10, 64)
	total, err2 := strconv.ParseInt(h.Get(hdrTotal), 10, 64)
	crc, err3 := strconv.ParseUint(h.Get(hdrCRC), 10, 32)
	next, err4 := strconv.ParseUint(h.Get(hdrNext), 10, 64)
	nextGen, err5 := strconv.ParseUint(h.Get(hdrNextGen), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
		return nil, errors.New("httpapi: malformed replica headers")
	}
	// Absent on pre-lag-reporting primaries; zero means "unknown" and the
	// follower reports LagSegments -1.
	var active uint64
	if v := h.Get(hdrActive); v != "" {
		if active, err = strconv.ParseUint(v, 10, 64); err != nil {
			return nil, errors.New("httpapi: malformed replica headers")
		}
	}
	return &replica.Chunk{
		Epoch: h.Get(hdrEpoch),
		SegmentChunk: kvstore.SegmentChunk{
			ID:       id,
			From:     from,
			Data:     data,
			Sealed:   sealed,
			Total:    total,
			Gen:      gen,
			CRC32:    uint32(crc),
			NextID:   next,
			NextGen:  nextGen,
			ActiveID: active,
		},
	}, nil
}

// ReplicaRelease ends a pin lease.
func (c *Client) ReplicaRelease(store, pinID string) error {
	return c.call("POST", "/v2/replica/release?store="+url.QueryEscape(store)+"&pin="+url.QueryEscape(pinID), nil, nil)
}

// ReplicaStatus reads either role's replication status.
func (c *Client) ReplicaStatus() (*ReplicaStatusResponse, error) {
	var resp ReplicaStatusResponse
	if err := c.call("GET", "/v2/replica/status", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// KVPut attempts a write on a replica daemon (rejected until promoted).
func (c *Client) KVPut(store string, key, val []byte) error {
	return c.call("POST", "/v2/kv/put?store="+url.QueryEscape(store), KVPutRequest{Key: b64(key), Value: b64(val)}, nil)
}

// RevocationContains asks either role for exact revocation containment.
func (c *Client) RevocationContains(serial license.Serial) (bool, error) {
	var resp ContainsResponse
	p := "/v2/revocation/contains?serial=" + base64.URLEncoding.EncodeToString(serial[:])
	if err := c.call("GET", p, nil, &resp); err != nil {
		return false, err
	}
	return resp.Found, nil
}

// replicaFetcher adapts the client SDK to replica.Fetcher for one store.
type replicaFetcher struct {
	c     *Client
	store string
}

// NewReplicaFetcher returns the transport a replica.Follower uses to
// tail `store` on the daemon at client's BaseURL.
func NewReplicaFetcher(c *Client, store string) replica.Fetcher {
	return replicaFetcher{c: c, store: store}
}

func (rf replicaFetcher) Manifest(pin bool) (*replica.Manifest, error) {
	return rf.c.ReplicaManifest(rf.store, pin)
}

func (rf replicaFetcher) Segment(id uint64, from, max int64, wantGen uint64, pinID string) (*replica.Chunk, error) {
	return rf.c.ReplicaSegment(rf.store, id, from, max, wantGen, pinID)
}

func (rf replicaFetcher) Release(pinID string) error {
	return rf.c.ReplicaRelease(rf.store, pinID)
}
