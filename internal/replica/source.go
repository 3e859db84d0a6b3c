package replica

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"p2drm/internal/kvstore"
)

// DefaultPinTTL is how long an idle pin session survives before the
// source reaps it and compaction of the pinned segments resumes.
const DefaultPinTTL = 2 * time.Minute

// ErrUnknownPin is returned for a pin id the source does not hold
// (expired, released, or never issued).
var ErrUnknownPin = errors.New("replica: unknown or expired pin")

// Manifest is the snapshot descriptor a follower bootstraps from:
// every log segment in id order (sealed first, active last) plus the
// primary's epoch and, when requested, a pin session id holding the
// sealed set against compaction.
type Manifest struct {
	Epoch    string                `json:"epoch"`
	PinID    string                `json:"pin_id,omitempty"`
	Segments []kvstore.SegmentInfo `json:"segments"`
}

// Chunk is one segment read: raw log bytes plus the identity metadata a
// follower needs to verify continuity and find the next segment —
// kvstore's SegmentChunk stamped with the primary's epoch. Embedding
// keeps the two shapes in lockstep: a continuity field added to the
// engine cannot be silently dropped by a translation layer here.
type Chunk struct {
	Epoch string
	kvstore.SegmentChunk
}

// Fetcher is the follower's view of a primary, implemented over HTTP by
// internal/httpapi and in-process by LocalFetcher. Segment's wantGen is
// an identity expectation the primary ENFORCES for sealed segments at
// every offset, including from==0: callers learn gens from the manifest
// or the previous chunk's NextGen, never by adopting whatever the
// primary currently has (accepting an unexpected compacted rewrite
// could silently resurrect keys whose tombstones the rewrite dropped).
// The active segment always has gen 0.
type Fetcher interface {
	Manifest(pin bool) (*Manifest, error)
	Segment(id uint64, from, max int64, wantGen uint64, pinID string) (*Chunk, error)
	Release(pinID string) error
}

// Source is the primary-side replication endpoint for one store. It is
// safe for concurrent use by any number of followers.
type Source struct {
	store *kvstore.Store
	epoch string

	mu     sync.Mutex
	pins   map[string]*pinSession
	pinTTL time.Duration
	// reapTimer drives TTL expiry even when no further replication
	// traffic arrives (a snapshot client that vanished mid-download
	// must not block compaction forever). Armed whenever pins exist;
	// disarms itself once the map drains.
	reapTimer *time.Timer
}

type pinSession struct {
	pin      *kvstore.Pin
	lastUsed time.Time
}

// NewSource wraps store as a replication source with a fresh random
// epoch. The epoch changes every time the primary process (re)creates
// its sources, which is exactly the signal followers use to distrust
// their cursor and re-snapshot.
func NewSource(store *kvstore.Store) *Source {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("replica: epoch entropy: %v", err))
	}
	return &Source{
		store:  store,
		epoch:  hex.EncodeToString(b[:]),
		pins:   make(map[string]*pinSession),
		pinTTL: DefaultPinTTL,
	}
}

// SetPinTTL overrides the idle pin lease (tests use short leases).
func (s *Source) SetPinTTL(d time.Duration) {
	s.mu.Lock()
	s.pinTTL = d
	s.mu.Unlock()
}

// Epoch identifies this primary incarnation.
func (s *Source) Epoch() string { return s.epoch }

// Store exposes the underlying store (status/stats handlers).
func (s *Source) Store() *kvstore.Store { return s.store }

// Manifest lists the store's segments. With pin=true the sealed set is
// pinned under a new leased session whose id is returned in the
// manifest; the caller streams the segments (passing the pin id to keep
// the lease fresh) and then releases it.
func (s *Source) Manifest(pin bool) (*Manifest, error) {
	s.reap()
	if !pin {
		infos, err := s.store.Manifest()
		if err != nil {
			return nil, err
		}
		return &Manifest{Epoch: s.epoch, Segments: infos}, nil
	}
	kp, infos, err := s.store.PinSealed()
	if err != nil {
		return nil, err
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		kp.Release()
		return nil, err
	}
	id := hex.EncodeToString(b[:])
	s.mu.Lock()
	s.reapLocked(time.Now())
	s.pins[id] = &pinSession{pin: kp, lastUsed: time.Now()}
	s.armReapLocked()
	s.mu.Unlock()
	return &Manifest{Epoch: s.epoch, PinID: id, Segments: infos}, nil
}

// armReapLocked schedules a timed reap while pins exist. Caller holds
// s.mu. The timer re-arms itself until the pin map drains, so an
// abandoned lease is released one TTL after its last touch with no
// dependence on further incoming requests.
func (s *Source) armReapLocked() {
	if s.reapTimer != nil || len(s.pins) == 0 {
		return
	}
	d := s.pinTTL + s.pinTTL/10 + time.Millisecond
	s.reapTimer = time.AfterFunc(d, func() {
		s.mu.Lock()
		s.reapTimer = nil
		s.reapLocked(time.Now())
		s.armReapLocked()
		s.mu.Unlock()
	})
}

// Segment reads raw segment bytes; see kvstore.ReadSegment for the
// gen/durable-horizon semantics. A non-empty pinID refreshes that pin's
// lease (an expired or unknown pin is an error so the follower knows
// its snapshot guarantee is gone and restarts rather than racing
// compaction).
func (s *Source) Segment(id uint64, from, max int64, wantGen uint64, pinID string) (*Chunk, error) {
	if pinID != "" {
		if err := s.touchPin(pinID); err != nil {
			return nil, err
		}
	} else {
		// Unpinned tail reads still reap expired leases, so a vanished
		// snapshot client cannot block compaction while tailing
		// followers keep the primary busy.
		s.reap()
	}
	ch, err := s.store.ReadSegment(id, from, max, wantGen)
	if err != nil {
		return nil, err
	}
	return &Chunk{Epoch: s.epoch, SegmentChunk: *ch}, nil
}

// Release ends a pin session. Unknown ids are a no-op (the lease may
// have expired already).
func (s *Source) Release(pinID string) error {
	s.mu.Lock()
	ps := s.pins[pinID]
	delete(s.pins, pinID)
	s.mu.Unlock()
	if ps != nil {
		ps.pin.Release()
	}
	return nil
}

// reap releases pins idle past the TTL.
func (s *Source) reap() {
	s.mu.Lock()
	s.reapLocked(time.Now())
	s.mu.Unlock()
}

// touchPin refreshes a lease, reaping expired sessions on the way.
func (s *Source) touchPin(id string) error {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapLocked(now)
	ps := s.pins[id]
	if ps == nil {
		return ErrUnknownPin
	}
	ps.lastUsed = now
	return nil
}

// reapLocked releases pins idle past the TTL. Caller holds s.mu.
func (s *Source) reapLocked(now time.Time) {
	for id, ps := range s.pins {
		if now.Sub(ps.lastUsed) > s.pinTTL {
			ps.pin.Release()
			delete(s.pins, id)
		}
	}
}

// Pins reports live pin sessions (status endpoint).
func (s *Source) Pins() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pins)
}

// LocalFetcher adapts a Source to the Fetcher interface for in-process
// followers (tests and benchmarks).
type LocalFetcher struct{ Src *Source }

// Manifest implements Fetcher.
func (l LocalFetcher) Manifest(pin bool) (*Manifest, error) { return l.Src.Manifest(pin) }

// Segment implements Fetcher.
func (l LocalFetcher) Segment(id uint64, from, max int64, wantGen uint64, pinID string) (*Chunk, error) {
	return l.Src.Segment(id, from, max, wantGen, pinID)
}

// Release implements Fetcher.
func (l LocalFetcher) Release(pinID string) error { return l.Src.Release(pinID) }
