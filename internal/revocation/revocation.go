// Package revocation implements the provider's revoked/redeemed-serial
// list and the artifact devices consume: SignedFilter, a Bloom filter over
// all revoked serials, signed by the provider. Compliant devices hold the
// latest filter and refuse to play any license whose serial tests
// positive. Negatives are exact, so an honest license is never wrongly
// blocked; positives are conservative denials whose rate is a design
// parameter.
//
// The list itself is durable: every Add lands in the kvstore WAL before it
// is acknowledged, because forgetting a redeemed serial re-enables double
// redemption after a crash. Contains answers from the index, which a
// revocation enters when it is appended — before it is acknowledged — so
// a lookup never queues behind another caller's fsync; the conservative
// direction (briefly "revoked" for a record a crash could still drop) is
// the safe one for a deny list.
//
// The filter is built once when the list opens, at its final size: Open
// reads the recorded serials in one pass and sizes the filter for them,
// so a restarted provider serves — and signs — a filter at its design
// false-positive rate from the first request. Growth after that is
// absorbed by background rebuilds into doubled filters (see List).
//
// The signed filter is cut once per filter state. The list counts every
// change to its filter (an added serial, a rebuild swap) under its lock,
// and ExportFilter keeps the last artefact it signed together with the
// count it was cut at: a call finding that count unchanged, the same
// signer and an IssuedAt no more than filterMaxAge behind its clock (and
// not ahead of it) gets the same artefact back; anything else marshals
// and signs again. The invariant is strict: no artefact is returned once
// the filter it was cut from has changed, so a revocation that has been
// acknowledged is in the very next export. The provider signs
//
//	"p2drm/revfilter/v2" ‖ issued_at (unix seconds, 8 bytes) ‖ SHA-256(filter)
//
// — hash-then-sign, because the full-domain hash under the RSA signature
// makes one SHA-256 pass over its message per 32 bytes of modulus; over
// these 58 bytes that is free, and signer and verifier each read the
// filter once.
package revocation

import (
	"context"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2drm/internal/bloom"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
)

// keyPrefix namespaces revocation keys inside a shared store.
const keyPrefix = "rev:"

// StoreKey returns the kvstore key under which serial s is recorded.
// Exported so read replicas of the provider store can answer exact
// Contains lookups without constructing a List (httpapi's follower-side
// GET /v2/revocation/contains).
func StoreKey(s license.Serial) []byte {
	return append([]byte(keyPrefix), s[:]...)
}

// DefaultFilterCapacity sizes new Bloom filters when the caller gives no
// estimate.
const DefaultFilterCapacity = 1 << 16

// DefaultFalsePositiveRate is the filter design point: 1 in 10⁴ honest
// licenses is conservatively denied until the device refreshes its filter.
const DefaultFalsePositiveRate = 1e-4

// List is the durable revocation list.
//
// Open sizes the Bloom fast path for the serials already recorded, so a
// list starts inside its design point with no rebuild to run. From then
// on the filter is self-maintaining: when revocations push the live
// count past the filter's design capacity (so its false-positive rate
// drifts past the design point), a rebuild into a doubled filter runs on
// a BACKGROUND goroutine — TryAdd and Contains never block on it. Serials
// added while a rebuild is in flight are queued and folded into the new
// filter before the swap, so the invariant "every revoked serial is in
// the current filter" holds across generations; Contains may
// conservatively fall back to the exact store a little more often until
// the swap lands, never the reverse. Generation() counts swaps.
type List struct {
	mu     sync.RWMutex
	store  *kvstore.Store
	filter *bloom.Filter
	count  int

	// capacity is the current filter's design capacity; exceeding it
	// triggers an async rebuild into a doubled filter.
	capacity uint64
	// rebuilding is true while a background rebuild goroutine runs.
	rebuilding bool
	// pending holds serials added during a rebuild; they are folded into
	// the new filter before the swap.
	pending [][]byte
	// gen increments on every completed filter swap.
	gen uint64
	// filterVersion increments on every change to the filter's contents
	// (an added serial, a swap): the state a signed artefact was cut at.
	filterVersion uint64
	// rebuildDone is closed when the in-flight rebuild finishes; nil
	// while no rebuild runs. A fresh channel per rebuild (captured under
	// l.mu) lets Rebuild and waitRebuild wait without the
	// Add-at-zero-concurrent-with-Wait hazard a shared WaitGroup has.
	rebuildDone chan struct{}

	// exportMu serialises ExportFilter and guards exported, so downloads
	// that arrive together after a revocation share one signature. It is
	// taken before mu, never the other way round.
	exportMu sync.Mutex
	exported *exportedFilter
	// exportsCached and exportsSigned count ExportFilter outcomes.
	exportsCached, exportsSigned atomic.Uint64
}

// exportedFilter is a signed artefact with what it was cut from.
type exportedFilter struct {
	sf      *SignedFilter // Filter and Sig are views into wire
	wire    []byte        // sf.Marshal()
	version uint64        // filterVersion the filter bytes were copied at
	signer  *rsablind.Signer
}

// Open loads (or creates) a list backed by store. expected sizes the Bloom
// filter; pass 0 for DefaultFilterCapacity. Open reads the recorded
// serials once and builds the filter once, at its final size: expected
// doubled until it holds them, which is the size the capacity trigger's
// rebuilds would reach. So Open returns with no rebuild in flight and
// Generation() == 0, and its filter is byte-identical to the one a forced
// Rebuild would cut from the same serials.
//
// The read is the kvstore's relaxed per-shard scan: no whole-store
// snapshot and no sort. That is sound here because nothing writes the
// list's keys before the list exists — every revocation goes through a
// List, and this one has not been returned yet.
func Open(store *kvstore.Store, expected uint64) (*List, error) {
	if store == nil {
		return nil, errors.New("revocation: nil store")
	}
	if expected == 0 {
		expected = DefaultFilterCapacity
	}
	serials := make([][]byte, 0, store.Len()) // Len bounds the count: one allocation
	store.PrefixScanRelaxed([]byte(keyPrefix), func(k, _ []byte) bool {
		serials = append(serials, k[len(keyPrefix):])
		return true
	})
	capacity := expected
	for capacity < uint64(len(serials)) {
		capacity *= 2
	}
	f, err := bloom.NewWithEstimates(capacity, DefaultFalsePositiveRate)
	if err != nil {
		return nil, err
	}
	for _, s := range serials {
		f.Add(s)
	}
	return &List{store: store, filter: f, capacity: capacity, count: len(serials)}, nil
}

// maybeRebuildLocked launches a background rebuild when the live count
// has outgrown the filter. Caller holds l.mu.
func (l *List) maybeRebuildLocked() {
	if l.rebuilding || uint64(l.count) <= l.capacity {
		return
	}
	target := l.capacity * 2
	for target < uint64(l.count) {
		target *= 2
	}
	l.rebuilding = true
	l.rebuildDone = make(chan struct{})
	go l.rebuild(target, l.rebuildDone)
}

// rebuild scans the exact store into a filter sized for target and swaps
// it in. It holds l.mu only for the final swap, and the store scan uses
// the kvstore's relaxed per-shard iteration — no global store snapshot
// is taken, so adds and lookups (on this list AND on everything else
// sharing the store) proceed throughout; any serial the relaxed scan
// misses was added after the rebuild started and is covered by the
// pending queue.
func (l *List) rebuild(target uint64, done chan struct{}) {
	// Closing done (after the swap is visible) releases Rebuild and
	// waitRebuild callers holding this cycle's channel. When the final
	// maybeRebuildLocked chains another rebuild, rebuildDone has already
	// been replaced with the next cycle's channel.
	defer close(done)
	f, err := bloom.NewWithEstimates(target, DefaultFalsePositiveRate)
	if err != nil {
		// Can't size a new filter: keep the old one (correct, just a
		// higher false-positive rate) and allow a future retry.
		l.mu.Lock()
		l.rebuilding = false
		l.rebuildDone = nil
		l.pending = nil
		l.mu.Unlock()
		return
	}
	l.store.PrefixScanRelaxed([]byte(keyPrefix), func(k, v []byte) bool {
		f.Add(k[len(keyPrefix):])
		return true
	})
	l.mu.Lock()
	// Serials revoked while we scanned may have missed the snapshot;
	// fold them in before the swap (double-adds are harmless).
	for _, s := range l.pending {
		f.Add(s)
	}
	l.pending = nil
	l.filter = f
	l.filterVersion++
	l.capacity = target
	l.rebuilding = false
	l.rebuildDone = nil
	l.gen++
	// The count may have grown past the new target while scanning.
	l.maybeRebuildLocked()
	l.mu.Unlock()
}

// Rebuild forces a full filter rebuild — the entry point behind the
// REST plane's POST /v2/revocation/rebuild operation. It launches the
// same background rebuild the capacity trigger uses (sized for the
// current count, never smaller than the current capacity), waits for
// the in-flight cycle to land, and returns the resulting generation.
// Safe to run twice: rebuilding is idempotent over the exact store, so
// the operation can be resumed after a daemon restart.
func (l *List) Rebuild() uint64 {
	l.mu.Lock()
	if !l.rebuilding {
		target := l.capacity
		for target < uint64(l.count) {
			target *= 2
		}
		l.rebuilding = true
		l.rebuildDone = make(chan struct{})
		go l.rebuild(target, l.rebuildDone)
	}
	done := l.rebuildDone
	l.mu.Unlock()
	<-done
	return l.Generation()
}

// Generation reports how many background filter rebuilds have completed.
func (l *List) Generation() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.gen
}

// FilterCapacity reports the current filter's design capacity.
func (l *List) FilterCapacity() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.capacity
}

// waitRebuild drains in-flight rebuilds, chained ones included (tests
// and shutdown paths).
func (l *List) waitRebuild() {
	for {
		l.mu.Lock()
		done := l.rebuildDone
		l.mu.Unlock()
		if done == nil {
			return
		}
		<-done
	}
}

// Add marks a serial revoked. Idempotent.
func (l *List) Add(s license.Serial) error {
	_, err := l.TryAdd(s)
	return err
}

// TryAdd marks a serial revoked and reports whether this call was the
// one that revoked it; see TryAddCtx.
func (l *List) TryAdd(s license.Serial) (fresh bool, err error) {
	return l.TryAddCtx(context.Background(), s)
}

// TryAddCtx is the list's compare-and-set: of any number of concurrent
// calls on one serial exactly one gets fresh=true — the provider's
// Exchange uses it as its double-exchange gate. The store insert and the
// Bloom update happen under the list lock; the durability wait does not,
// so lookups and other revocations proceed (and share the fsync) while
// this one waits. A context carrying a kvstore commit set defers that
// wait to the set's owner; otherwise both answers are durable on return,
// the loser's meaning the record it lost to.
func (l *List) TryAddCtx(ctx context.Context, s license.Serial) (fresh bool, err error) {
	ctx, commit := kvstore.BeginCommit(ctx)
	l.mu.Lock()
	fresh, err = l.store.PutIfAbsentCtx(ctx, StoreKey(s), []byte{1})
	if err == nil && fresh {
		l.addToFilterLocked(s[:])
	}
	l.mu.Unlock()
	if err == nil {
		err = commit.End(ctx)
	}
	if err != nil {
		return false, fmt.Errorf("revocation: persist: %w", err)
	}
	return fresh, nil
}

// addToFilterLocked records one freshly revoked serial in the fast path:
// into the current filter always, into the pending queue too while a
// rebuild is in flight (the rebuild's store scan may have already passed
// this serial's position). Caller holds l.mu.
func (l *List) addToFilterLocked(serial []byte) {
	l.filter.Add(serial)
	l.filterVersion++
	l.count++
	if l.rebuilding {
		l.pending = append(l.pending, append([]byte(nil), serial...))
	}
	l.maybeRebuildLocked()
}

// AddBatch revokes several serials atomically (one WAL record). Like
// TryAddCtx it holds the list lock for the append and the Bloom update
// only, not for the durability wait.
func (l *List) AddBatch(serials []license.Serial) error {
	ctx, commit := kvstore.BeginCommit(context.Background())
	l.mu.Lock()
	b := new(kvstore.Batch)
	fresh := make([]license.Serial, 0, len(serials))
	for _, s := range serials {
		key := StoreKey(s)
		if l.store.Has(key) {
			continue
		}
		b.Put(key, []byte{1})
		fresh = append(fresh, s)
	}
	// A serial skipped as present may belong to a revocation still waiting
	// for its fsync: the barrier makes "nil" mean durable for those too.
	err := l.store.ReadBarrierCtx(ctx)
	if err == nil {
		err = l.store.ApplyCtx(ctx, b)
	}
	if err == nil {
		for _, s := range fresh {
			l.addToFilterLocked(s[:])
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = commit.End(ctx)
	}
	if err != nil {
		return fmt.Errorf("revocation: persist batch: %w", err)
	}
	return nil
}

// Contains reports whether s is revoked (exact answer: Bloom fast path,
// store fallback on positives).
func (l *List) Contains(s license.Serial) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if !l.filter.Contains(s[:]) {
		return false
	}
	return l.store.Has(StoreKey(s))
}

// Len returns the number of revoked serials.
func (l *List) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.count
}

// SignedFilter is the device-side revocation artifact. One returned by
// ExportFilter is shared with every other caller that gets the same
// artefact: treat it as read-only.
type SignedFilter struct {
	Filter   []byte    // bloom.Marshal output
	IssuedAt time.Time // whole seconds, UTC
	Sig      []byte    // provider FDH-RSA over filterSigningBytes
}

// filterMaxAge bounds how long one signed artefact is handed out for an
// unchanged filter: a device may rely on IssuedAt being at most this far
// behind the moment it asked.
const filterMaxAge = time.Minute

const filterSigningTag = "p2drm/revfilter/v2"

func filterSigningBytes(filter []byte, issuedAt time.Time) []byte {
	digest := sha256.Sum256(filter)
	out := make([]byte, 0, len(filterSigningTag)+8+len(digest))
	out = append(out, filterSigningTag...)
	out = binary.BigEndian.AppendUint64(out, uint64(issuedAt.Unix()))
	return append(out, digest[:]...)
}

// signedFilterHeader is issued_at[8] ‖ len(sig)[4].
const signedFilterHeader = 12

// Marshal serialises the artefact for the wire:
//
//	issued_at[8] | len(sig)[4] | sig | filter
//
// issued_at is unix seconds, both integers big-endian; the filter runs
// to the end.
func (sf *SignedFilter) Marshal() []byte {
	out := make([]byte, 0, signedFilterHeader+len(sf.Sig)+len(sf.Filter))
	out = binary.BigEndian.AppendUint64(out, uint64(sf.IssuedAt.Unix()))
	out = binary.BigEndian.AppendUint32(out, uint32(len(sf.Sig)))
	out = append(out, sf.Sig...)
	return append(out, sf.Filter...)
}

// ParseSignedFilter reads Marshal output. Filter and Sig are views into
// data. It checks framing only: the bytes are untrusted until
// VerifyFilter has accepted them.
func ParseSignedFilter(data []byte) (*SignedFilter, error) {
	if len(data) < signedFilterHeader {
		return nil, errors.New("revocation: truncated signed filter")
	}
	sigLen := uint64(binary.BigEndian.Uint32(data[8:12]))
	body := data[signedFilterHeader:]
	if sigLen > uint64(len(body)) {
		return nil, fmt.Errorf("revocation: signature length %d past the end of a %d-byte signed filter", sigLen, len(data))
	}
	return &SignedFilter{
		IssuedAt: time.Unix(int64(binary.BigEndian.Uint64(data[:8])), 0).UTC(),
		Sig:      body[:sigLen],
		Filter:   body[sigLen:],
	}, nil
}

// ExportFilter returns the current filter state signed for distribution
// to devices, cutting a new artefact only when the cached one no longer
// stands for it (see the package comment): the filter changed, the signer
// differs, or now is before its IssuedAt or more than filterMaxAge after.
func (l *List) ExportFilter(signer *rsablind.Signer, now time.Time) (*SignedFilter, error) {
	e, err := l.export(signer, now)
	if err != nil {
		return nil, err
	}
	return e.sf, nil
}

// ExportFilterWire is ExportFilter returning the artefact's Marshal
// encoding, which is built once with it. Read-only, like the artefact.
func (l *List) ExportFilterWire(signer *rsablind.Signer, now time.Time) ([]byte, error) {
	e, err := l.export(signer, now)
	if err != nil {
		return nil, err
	}
	return e.wire, nil
}

func (l *List) export(signer *rsablind.Signer, now time.Time) (*exportedFilter, error) {
	issuedAt := now.UTC().Truncate(time.Second)
	l.exportMu.Lock()
	defer l.exportMu.Unlock()
	c := l.exported
	if c != nil && c.signer == signer &&
		!issuedAt.Before(c.sf.IssuedAt) && now.Sub(c.sf.IssuedAt) <= filterMaxAge {
		l.mu.RLock()
		current := c.version == l.filterVersion
		l.mu.RUnlock()
		if current {
			l.exportsCached.Add(1)
			return c, nil
		}
	}
	l.mu.RLock()
	data := l.filter.Marshal()
	version := l.filterVersion
	l.mu.RUnlock()
	sig, err := signer.Sign(filterSigningBytes(data, issuedAt))
	if err != nil {
		return nil, fmt.Errorf("revocation: sign filter: %w", err)
	}
	l.exportsSigned.Add(1)
	// The artefact's fields are views into its encoding, so one copy of
	// the filter stays resident, not two.
	wire := (&SignedFilter{Filter: data, IssuedAt: issuedAt, Sig: sig}).Marshal()
	sf, err := ParseSignedFilter(wire)
	if err != nil {
		return nil, err
	}
	e := &exportedFilter{sf: sf, wire: wire, version: version, signer: signer}
	// A caller whose clock reads before the cached artefact gets one of
	// its own and leaves the cache alone: the cached IssuedAt never moves
	// backwards, so callers whose clocks do not run backwards (a daemon's
	// concurrent requests, whichever order they take exportMu in) never
	// see a later download carry an earlier timestamp, which a device
	// would refuse as a rollback.
	if c == nil || !issuedAt.Before(c.sf.IssuedAt) {
		l.exported = e
	}
	return e, nil
}

// ExportStats reports how many ExportFilter calls were answered with the
// cached artefact and how many marshalled and signed a new one.
func (l *List) ExportStats() (cached, signed uint64) {
	return l.exportsCached.Load(), l.exportsSigned.Load()
}

// VerifyFilter checks a signed filter and returns the usable Bloom filter.
func VerifyFilter(pub *rsa.PublicKey, sf *SignedFilter) (*bloom.Filter, error) {
	if sf == nil {
		return nil, errors.New("revocation: nil filter")
	}
	if err := rsablind.Verify(pub, filterSigningBytes(sf.Filter, sf.IssuedAt), sf.Sig); err != nil {
		return nil, fmt.Errorf("revocation: filter signature: %w", err)
	}
	return bloom.Unmarshal(sf.Filter)
}
