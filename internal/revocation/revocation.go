// Package revocation implements the provider's revoked/redeemed-serial
// list and the artifact devices consume: SignedFilter, a salted binary
// fuse filter over all revoked serials, signed by the provider. Compliant
// devices hold the latest filter and refuse to play any license whose
// serial tests positive. Negatives are exact, so a revoked license is
// never played; a positive for an honest serial is a conservative denial
// at the filter's rate of 2⁻¹⁴, and lasts one filter: every filter is cut
// under a fresh salt, so the next one wrongs other serials.
//
// The list itself is the exact set in the store: every Add lands in the
// kvstore WAL before it is acknowledged, because forgetting a redeemed
// serial re-enables double redemption after a crash. Contains reads the
// store's index, which a revocation enters when it is appended — before
// it is acknowledged — so a lookup never queues behind another caller's
// fsync; the conservative direction (briefly "revoked" for a record a
// crash could still drop) is the safe one for a deny list.
//
// The signed filter is cut once per list version. The list counts every
// change to its set, and ExportFilter keeps the last artefact it signed
// together with the version it was cut at: a call finding that version
// unchanged, the same signer and an IssuedAt no more than filterMaxAge
// behind its clock (and not ahead of it) gets the same artefact back.
// Anything else cuts a new one: it reads the version, collects the
// recorded serials in one scan, builds a filter of exactly those serials
// under a fresh salt from crypto/rand, and signs it. The invariant is
// strict: no artefact is returned once the set it was cut from has
// changed, so a revocation that has been acknowledged is in the very
// next export. The provider signs
//
//	"p2drm/revfilter/v4" ‖ issued_at (unix seconds, 8 bytes) ‖ SHA-256(filter)
//
// — hash-then-sign, because the full-domain hash under the RSA signature
// makes one SHA-256 pass over its message per 32 bytes of modulus; over
// these 58 bytes that is free, and signer and verifier each read the
// filter, salt included, once. A device then reads the verified bytes in
// place: verifying a filter copies none of it.
package revocation

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/fuse"
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

// List is the durable revocation list: the serials recorded under
// keyPrefix in its store, and the signed filter last cut from them.
type List struct {
	store *kvstore.Store
	// version counts changes to the set. A fresh revocation bumps it
	// after its index insert, so a cut that reads the version before it
	// scans holds every serial that version counts.
	version atomic.Uint64

	// exportMu serialises ExportFilter and guards exported, so downloads
	// that arrive together after a revocation share one cut.
	exportMu sync.Mutex
	exported *exportedFilter
	// exportsCached and exportsSigned count ExportFilter outcomes.
	exportsCached, exportsSigned atomic.Uint64
}

// exportedFilter is a signed artefact with what it was cut from.
type exportedFilter struct {
	sf      *SignedFilter // Filter and Sig are views into wire
	wire    []byte        // sf.Marshal()
	version uint64        // the list version read before the cut's scan
	signer  *rsablind.Signer
}

// Open returns the list backed by store. It reads and builds nothing:
// the set is the store's, and the first export cuts the first filter.
// expected is ignored.
func Open(store *kvstore.Store, expected uint64) (*List, error) {
	if store == nil {
		return nil, errors.New("revocation: nil store")
	}
	return &List{store: store}, nil
}

// Rebuild drops the cached artefact, so the next export cuts a new one,
// and returns the number of cuts signed so far. The repository
// benchmark's probe is its only caller.
func (l *List) Rebuild() uint64 {
	l.exportMu.Lock()
	l.exported = nil
	l.exportMu.Unlock()
	return l.exportsSigned.Load()
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
// Exchange uses it as its double-exchange gate. The gate is the store's
// PutIfAbsent; lookups and other revocations proceed (and share the
// fsync) while this one waits for durability. A context carrying a
// kvstore commit set defers that wait to the set's owner; otherwise both
// answers are durable on return, the loser's meaning the record it lost
// to.
func (l *List) TryAddCtx(ctx context.Context, s license.Serial) (fresh bool, err error) {
	ctx, commit := kvstore.BeginCommit(ctx)
	fresh, err = l.store.PutIfAbsentCtx(ctx, StoreKey(s), []byte{1})
	if err == nil && fresh {
		l.version.Add(1)
	}
	if err == nil {
		err = commit.End(ctx)
	}
	if err != nil {
		return false, fmt.Errorf("revocation: persist: %w", err)
	}
	return fresh, nil
}

// AddBatch revokes several serials atomically (one WAL record).
func (l *List) AddBatch(serials []license.Serial) error {
	ctx, commit := kvstore.BeginCommit(context.Background())
	b := new(kvstore.Batch)
	for _, s := range serials {
		if key := StoreKey(s); !l.store.Has(key) {
			b.Put(key, []byte{1})
		}
	}
	// A serial skipped as present may belong to a revocation still waiting
	// for its fsync: the barrier makes "nil" mean durable for those too.
	err := l.store.ReadBarrierCtx(ctx)
	if err == nil {
		err = l.store.ApplyCtx(ctx, b)
	}
	if err == nil && b.Len() > 0 {
		l.version.Add(1)
	}
	if err == nil {
		err = commit.End(ctx)
	}
	if err != nil {
		return fmt.Errorf("revocation: persist batch: %w", err)
	}
	return nil
}

// Contains reports whether s is revoked: the exact answer, from the
// store's index.
func (l *List) Contains(s license.Serial) bool {
	return l.store.Has(StoreKey(s))
}

// Len returns the number of revoked serials, counted in one relaxed scan.
func (l *List) Len() int {
	n := 0
	l.store.PrefixScanRelaxed([]byte(keyPrefix), func(_, _ []byte) bool {
		n++
		return true
	})
	return n
}

// SignedFilter is the device-side revocation artifact. One returned by
// ExportFilter is shared with every other caller that gets the same
// artefact: treat it as read-only.
type SignedFilter struct {
	Filter   []byte    // fuse.Filter.Marshal output
	IssuedAt time.Time // whole seconds, UTC
	Sig      []byte    // provider FDH-RSA over filterSigningBytes
}

// filterMaxAge bounds how long one signed artefact is handed out for an
// unchanged list: a device may rely on IssuedAt being at most this far
// behind the moment it asked.
const filterMaxAge = time.Minute

const filterSigningTag = "p2drm/revfilter/v4"

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

// ExportFilter returns a filter of the current list signed for
// distribution to devices, cutting a new artefact only when the cached
// one no longer stands for it (see the package comment): the list
// changed, the signer differs, or now is before its IssuedAt or more than
// filterMaxAge after.
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
	version := l.version.Load()
	c := l.exported
	if c != nil && c.signer == signer && c.version == version &&
		!issuedAt.Before(c.sf.IssuedAt) && now.Sub(c.sf.IssuedAt) <= filterMaxAge {
		l.exportsCached.Add(1)
		return c, nil
	}
	data, err := l.cut()
	if err != nil {
		return nil, err
	}
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

// cut builds the device filter of the serials one relaxed scan finds,
// under a fresh salt. A serial revoked during the scan may be missed; it
// bumped the version after the caller read it, so the artefact is stale
// at once and the next export cuts again.
func (l *List) cut() ([]byte, error) {
	var serials [][]byte
	l.store.PrefixScanRelaxed([]byte(keyPrefix), func(k, _ []byte) bool {
		serials = append(serials, k[len(keyPrefix):])
		return true
	})
	f, err := fuse.Build(serials, rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("revocation: cut filter: %w", err)
	}
	return f.Marshal(), nil
}

// ExportStats reports how many ExportFilter calls were answered with the
// cached artefact and how many cut and signed a new one.
func (l *List) ExportStats() (cached, signed uint64) {
	return l.exportsCached.Load(), l.exportsSigned.Load()
}

// VerifyFilter checks a signed filter and returns the filter, which reads
// sf.Filter in place: those bytes must not change while it is in use.
func VerifyFilter(pub *rsa.PublicKey, sf *SignedFilter) (*fuse.Filter, error) {
	if sf == nil {
		return nil, errors.New("revocation: nil filter")
	}
	if err := rsablind.Verify(pub, filterSigningBytes(sf.Filter, sf.IssuedAt), sf.Sig); err != nil {
		return nil, fmt.Errorf("revocation: filter signature: %w", err)
	}
	return fuse.Unmarshal(sf.Filter)
}
