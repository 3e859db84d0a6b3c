// Package kvstore implements the embedded storage engine that backs every
// stateful P2DRM party: the provider's pseudonym registry, license ledger
// and redeemed-serial list, the payment bank's double-spend ledger, and the
// client wallet.
//
// The design is a segmented write-ahead log under a sharded in-memory
// index:
//
//   - The index is split into IndexShards lock-striped shards (key-hash
//     → shard), so Get/Has/Put/PutIfAbsent on different keys
//     never contend on one mutex. Per-key operations take exactly one
//     shard lock; batches lock their shards in index order.
//   - Every mutation is appended to the log as a CRC-framed record before
//     it is applied to the index, so a crash never loses acknowledged
//     writes and never exposes half-applied batches.
//   - The log is a sequence of capped segment files (000001.wal,
//     000002.wal, …; Options.SegmentBytes). Appends go to the highest-
//     numbered (active) segment; when it fills, it is fsynced, sealed and
//     a fresh segment becomes active. Sealed segments are immutable.
//   - Open replays segments in id order. Sealed segments must decode
//     cleanly end to end (they were fsynced before being sealed); only
//     the LAST segment may carry a torn tail (partial final record from a
//     crash mid-write), which is detected by CRC/length and truncated.
//   - Compaction is incremental: CompactStep rewrites ONE sealed segment
//     at a time, keeping only records that still match the live index,
//     and atomically renames the result over the original (or deletes it
//     when nothing survives). Writers never wait on a rewrite — the only
//     pauses they can observe are the one-segment file swap during a
//     roll and one active-segment fsync per compaction step (which makes
//     the index state that justified the step's drops durable first).
//     Compact seals the active segment and runs a full CompactStep cycle;
//     Options.CompactEvery starts a background compactor goroutine.
//
// Batches are single log records, so multi-key updates (e.g. "store new
// license + mark old serial redeemed") are atomic across crashes.
//
// The engine also maintains per-segment metadata (record/live counts and
// key range, segMeta) keyed by the segment id carried in every index
// entry: CompactStep uses it to SKIP provably all-live segments without
// rescanning them, and it doubles as the replication manifest payload.
// The replication read surface — Manifest, ReadSegment, PinSealed,
// DurableOffset, ScanRecords — lives in replicate.go and is documented
// there; internal/replica builds snapshot + WAL-segment shipping on it.
//
// # Durability policies
//
// Open gives the seed behavior (SyncOnClose): every record is flushed to
// the OS on write but only fsynced by Sync/Close and at segment rolls, so
// an OS crash can lose the acknowledged tail of the active segment.
// OpenWith selects SyncGroupCommit, under which every acknowledged write
// survives power loss: writers append + flush their record, then block
// on a shared commit window. The first blocked writer becomes the commit
// leader, issues ONE file.Sync() on the active segment covering every
// record appended so far, and wakes the whole window. Under concurrency
// the fsync cost is amortized across the window; a lone writer pays one
// fsync per write. Records in sealed segments are always durable: the
// roll fsyncs a segment before retiring it.
//
// Group-commit ordering guarantee: when a mutation returns nil its record
// — and, because the log is append-only across segments, every record
// acknowledged before it — is on stable storage. Callers sequencing
// cross-store invariants ("spent mark durable before balance credit",
// payment.Bank.Deposit) get that ordering for free. A failed fsync
// poisons the store: the error is sticky and every subsequent mutation or
// durable wait returns it, because after a failed fsync the kernel may
// have dropped the dirty pages and a retry would falsely report
// durability.
//
// # Commit sets
//
// "Durable when the mutation returns" is the contract of every
// context-free mutation and of the ...Ctx forms under a plain context. A
// request that makes several writes can trade it for "durable when the
// request's commit set is settled": under a context from BeginCommit
// (commitset.go) the ...Ctx mutations append, apply and note their record
// instead of waiting, and the set's owner waits once per store for the
// highest seq noted there — Commit.End at the request boundary, on the
// success and the refusal path alike, and Commit.Barrier wherever a
// record in one store must be durable before a record in another is even
// appended. The index runs ahead of the disk in both modes (a record is
// visible to Get/Has from the moment it is applied), so what the contract
// restricts is acting on a result, not reading: no acknowledgement and no
// refusal that rests on a record may leave before that record's wait
// returned nil. PutIfAbsentCtx's loser and ReadBarrierCtx note the newest
// seq for exactly that reason.
//
// # Lock order
//
// shard locks → logMu → gcMu. Per-key writers hold one shard lock across
// the append (logMu) and the index apply, so log order matches apply
// order for any single key; batch writers hold every involved shard lock,
// in ascending shard order. The group-commit leader holds NO lock during
// its file.Sync(), so appends keep landing in the next window while the
// current one is made durable. compactMu (serializes compactions) is
// taken before any of the above and is never requested while holding
// them. Close and segment rolls mutate s.file only after draining any
// in-flight leader under gcMu (beginFileSwap/endFileSwap).
//
// # Segment lifecycle
//
//	active --roll (fsync, seal)--> sealed --CompactStep--> compacted (same id)
//	                                  \--CompactStep, nothing live--> deleted
//
// A compacted segment keeps its id and log position, so replay order is
// preserved: a surviving record is the newest write for its key, and any
// newer write lives in a higher-numbered segment. Tombstones (deletes for
// keys absent from the index) are dropped only when compacting the OLDEST
// sealed segment — elsewhere they must survive to kill puts in older
// segments. Crash-safety: the compactor writes NNNNNN.wal.tmp, fsyncs it,
// then renames over the original; a crash leaves either the old or the
// new file, both of which replay to the same state, and *.tmp leftovers
// are removed at Open.
package kvstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2drm/internal/obs"
)

var (
	// ErrClosed is returned for operations on a closed store.
	ErrClosed = errors.New("kvstore: store is closed")
	// ErrEmptyKey rejects zero-length keys, reserved for future framing.
	ErrEmptyKey = errors.New("kvstore: empty key")
)

// SyncPolicy selects when appended WAL records are forced to stable
// storage. See the package comment for the full semantics.
type SyncPolicy int

const (
	// SyncOnClose flushes every record to the OS on write but fsyncs
	// only in Sync, Close and segment rolls. Fastest; an OS crash can
	// lose the tail of the active segment.
	SyncOnClose SyncPolicy = iota
	// SyncGroupCommit makes every mutation durable before it returns,
	// amortizing the fsync across all writers in one commit window.
	SyncGroupCommit
)

const (
	// IndexShards is the lock-stripe count of the in-memory index (a
	// power of two).
	IndexShards = 16
	// DefaultSegmentBytes is the segment size cap when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 64 << 20
	// compactMinGarbage is the GarbageRatio at which the background
	// compactor runs a step.
	compactMinGarbage = 0.5
)

// Options tune a store opened with OpenWith.
type Options struct {
	// Sync is the durability policy (default SyncOnClose).
	Sync SyncPolicy
	// CommitInterval (SyncGroupCommit only) makes the commit leader wait
	// this long before issuing the shared fsync, widening the window at
	// the cost of latency. Zero (the default) syncs as soon as the
	// leader runs; natural batching still occurs because followers that
	// arrive during an in-flight fsync join the next window.
	CommitInterval time.Duration
	// SegmentBytes caps one log segment; the active segment rolls after
	// it grows past this (default DefaultSegmentBytes). A segment may
	// exceed the cap by at most one record.
	SegmentBytes int64
	// CompactEvery, when positive, starts a background goroutine that
	// runs one CompactStep per tick while GarbageRatio() ≥ 0.5. Zero
	// disables background compaction.
	CompactEvery time.Duration
}

// Observer receives engine timing events for the observability plane.
// Every field is optional; a nil Observer (the default) costs one
// atomic pointer load per instrumented site. Callbacks must be fast
// and safe for concurrent use — they run inline on write paths (the
// group-commit leader's fsync callback runs lock-free).
type Observer struct {
	// FsyncSeconds observes every fsync on the append path: the
	// group-commit leader's shared sync and explicit Sync calls.
	FsyncSeconds func(time.Duration)
	// CommitWaitSeconds observes how long one durability wait blocked on
	// the group-commit window (includes the fsync for the leader): one
	// per mutation under a plain context, one per store per settled
	// commit set otherwise.
	CommitWaitSeconds func(time.Duration)
	// BatchOps observes the operation count of each applied Batch.
	BatchOps func(n int)
	// SegmentRolls fires once per active-segment roll.
	SegmentRolls func()
	// CompactSeconds observes each CompactStep that processed (rewrote
	// or deleted) a segment; skipped segments do not fire.
	CompactSeconds func(time.Duration)
}

// SetObserver installs (or clears, with nil) the engine observer.
// Intended to be called once, before the store starts serving traffic.
func (s *Store) SetObserver(o *Observer) { s.obsHook.Store(o) }

func (s *Store) observer() *Observer { return s.obsHook.Load() }

// entry is one live index slot: the current value plus the id of the log
// segment holding the key's newest record. The segment id is what makes
// exact per-segment liveness accounting (segMeta) possible: overwriting
// or deleting a key decrements the live count of the segment that held
// the previous record, so CompactStep can prove a sealed segment is
// all-live without rescanning it.
type entry struct {
	val []byte
	seg uint64
}

// shard is one lock stripe of the in-memory index.
type shard struct {
	mu   sync.RWMutex
	data map[string]entry
}

// recordOverhead is the framing of a simple put record (9-byte header +
// 4-byte key length). liveBytes charges it per live key so that a fully
// compacted log — which re-encodes exactly one such record per live key —
// converges to GarbageRatio 0 instead of reporting its own framing as
// garbage forever (batch-record framing differs by a few bytes per op;
// the ratio is an estimate either way).
const recordOverhead = 13

// applyOp mutates the shard map for one op and returns the live-byte
// delta (estimated log bytes needed to re-encode the key's newest
// record). seg is the id of the segment the op's record was appended to.
// The caller owns o.val (it is stored without copying) and holds sh.mu,
// except during single-threaded replay at Open. Per-segment live counts
// are maintained here, under the same shard lock that orders the append
// against concurrent compaction liveness checks.
func (s *Store) applyOp(sh *shard, o op, seg uint64) int64 {
	var delta int64
	if o.del {
		if old, ok := sh.data[string(o.key)]; ok {
			delta -= int64(recordOverhead + len(o.key) + len(old.val))
			s.segLiveAdd(old.seg, -1)
			delete(sh.data, string(o.key))
		}
		return delta
	}
	if old, ok := sh.data[string(o.key)]; ok {
		delta -= int64(recordOverhead + len(o.key) + len(old.val))
		s.segLiveAdd(old.seg, -1)
	}
	sh.data[string(o.key)] = entry{val: o.val, seg: seg}
	s.segLiveAdd(seg, 1)
	return delta + int64(recordOverhead+len(o.key)+len(o.val))
}

// segment is the in-memory metadata of one sealed (immutable) log segment.
type segment struct {
	id    uint64
	bytes int64
	// crc is the CRC32 (IEEE) of the full segment file, maintained as a
	// running checksum while the segment was active and recomputed by the
	// compactor when it rewrites the file. Replication followers use it
	// to verify shipped segments end to end.
	crc uint32
	// gen counts compaction rewrites of this segment's file. A sealed
	// segment's bytes are immutable for a given (id, gen); replication
	// reads carry the expected gen so a follower can never be handed
	// bytes from a file that was swapped under it.
	gen uint64
}

// Store is a durable (or, with Dir "", purely in-memory) key-value map.
type Store struct {
	shards []*shard

	// liveBytes tracks key+value bytes of the live set (atomic because
	// different shards mutate it concurrently).
	liveBytes atomic.Int64
	// seqNow mirrors seq for lock-free reads (PutIfAbsent losers).
	seqNow atomic.Int64
	// closedFlag mirrors closed for lock-free reads.
	closedFlag atomic.Bool
	// compactions counts completed CompactStep passes.
	compactions atomic.Int64
	// compactSkips counts CompactStep passes that skipped a segment the
	// per-segment metadata proved all-live (no rescan needed).
	compactSkips atomic.Int64

	// durable is true when the store is disk-backed. Immutable after
	// Open, so lock-free paths may branch on it (s.file itself is
	// guarded by logMu plus the gc swap protocol).
	durable bool

	// logMu guards the log-writer state below: the active segment file
	// and writer, the sealed-segment list, seq and byte accounting, and
	// the sticky append error. Taken AFTER shard locks, BEFORE gcMu.
	logMu       sync.Mutex
	file        *os.File // active segment; nil for in-memory stores
	w           *bufio.Writer
	dir         string
	opts        Options
	closed      bool
	seq         int64 // records appended to the log
	activeID    uint64
	activeBytes int64
	// activeCRC is the running CRC32 of every byte appended to the
	// active segment; it becomes the sealed segment's crc at roll time.
	activeCRC   uint32
	sealed      []segment // ascending id order
	bytesLogged int64     // total bytes across all segments
	// pinned refcounts sealed segments held open by replication snapshot
	// streams (Pin). CompactStep never rewrites or deletes a pinned
	// segment, so an atomic-rename swap can't yank bytes out from under
	// a streaming follower. Guarded by logMu.
	pinned map[uint64]int
	// walErr is the sticky append-path failure (write or flush). After
	// one, later records could sit beyond a hole replay can't cross, so
	// every further mutation is refused rather than falsely acknowledged.
	walErr error

	// compactMu serializes CompactStep/Compact. Taken before shard locks
	// and logMu, never while holding them.
	compactMu sync.Mutex
	// compactCursor indexes the next sealed segment to compact; it wraps
	// to 0 when a CompactStep cycle completes. Guarded by logMu.
	compactCursor int

	// compactStop/compactWG manage the background compactor goroutine.
	compactStop chan struct{}
	compactOnce sync.Once
	compactWG   sync.WaitGroup

	// Group-commit window state. Guarded by gcMu (taken after logMu when
	// both are held). gcAppended is the highest seq known flushed to the
	// OS, gcDurable the highest seq known fsynced; gcErr is the sticky
	// fsync failure.
	gcMu       sync.Mutex
	gcCond     *sync.Cond
	gcAppended int64
	gcDurable  int64
	gcSyncing  bool
	gcSwapping bool
	gcErr      error
	// gcBytesSeg/gcBytesOff track the byte position (segment id, offset)
	// of the newest appended record, so the commit leader can publish an
	// exact durable byte horizon after its fsync. Guarded by gcMu;
	// maintained only under SyncGroupCommit.
	gcBytesSeg uint64
	gcBytesOff int64

	// metaMu guards segMetas, the per-segment metadata registry. It is a
	// leaf lock: taken after shard locks, logMu or compactMu, never the
	// other way around.
	metaMu   sync.RWMutex
	segMetas map[uint64]*segMeta

	// obsHook is the optional engine observer (SetObserver). Atomic so
	// hot paths read it lock-free.
	obsHook atomic.Pointer[Observer]

	// durMu guards the durable byte horizon (durSeg, durOff): every byte
	// of segment durSeg before durOff — and every byte of every segment
	// with a lower id — is known to be on stable storage. The horizon
	// only ever advances, and always lands on a record boundary (every
	// fsync site is a whole-record position). Leaf lock.
	durMu  sync.Mutex
	durSeg uint64
	durOff int64
}

// segMeta is the engine-maintained metadata of one log segment: total
// records appended over its life, records still matching the live index,
// and the segment's key range. live==records proves a rewrite would be an
// identity, letting CompactStep skip the segment without rescanning it;
// the same numbers double as the replication manifest payload.
type segMeta struct {
	records atomic.Int64
	live    atomic.Int64
	// minKey/maxKey bound every key ever appended to the segment.
	// Mutated only by the single appending writer (under logMu) or
	// single-threaded replay/compaction; read under metaMu.RLock by
	// Manifest/SegmentInfos, so mutations take metaMu briefly.
	minKey, maxKey []byte
}

// note folds one appended record's ops into the metadata.
func (m *segMeta) note(s *Store, ops []op) {
	m.records.Add(int64(len(ops)))
	s.metaMu.Lock()
	for i := range ops {
		k := ops[i].key
		if m.minKey == nil || bytes.Compare(k, m.minKey) < 0 {
			m.minKey = append([]byte(nil), k...)
		}
		if m.maxKey == nil || bytes.Compare(k, m.maxKey) > 0 {
			m.maxKey = append([]byte(nil), k...)
		}
	}
	s.metaMu.Unlock()
}

// metaFor returns (creating if needed) the metadata slot for segment id.
func (s *Store) metaFor(id uint64) *segMeta {
	s.metaMu.RLock()
	m := s.segMetas[id]
	s.metaMu.RUnlock()
	if m != nil {
		return m
	}
	s.metaMu.Lock()
	if m = s.segMetas[id]; m == nil {
		m = &segMeta{}
		s.segMetas[id] = m
	}
	s.metaMu.Unlock()
	return m
}

// segLiveAdd adjusts segment id's live-record count (in-memory stores
// carry id 0 and no metadata registry entries worth tracking).
func (s *Store) segLiveAdd(id uint64, delta int64) {
	if !s.durable {
		return
	}
	s.metaFor(id).live.Add(delta)
}

// dropMeta forgets a deleted segment's metadata.
func (s *Store) dropMeta(id uint64) {
	s.metaMu.Lock()
	delete(s.segMetas, id)
	s.metaMu.Unlock()
}

// advanceDurable publishes a new durable byte horizon. Monotonic: a
// lower position than the current horizon is ignored.
func (s *Store) advanceDurable(seg uint64, off int64) {
	s.durMu.Lock()
	if seg > s.durSeg || (seg == s.durSeg && off > s.durOff) {
		s.durSeg, s.durOff = seg, off
	}
	s.durMu.Unlock()
}

// DurableOffset reports the durable byte horizon: every byte of segment
// seg before off, and every byte of every lower-numbered segment, is on
// stable storage. The horizon always lands on a record boundary.
// Replication sources stream the active segment only up to this horizon,
// so a follower can never apply a record the primary might lose in a
// crash. Under SyncGroupCommit the horizon tracks every acknowledged
// write; under SyncOnClose it only advances at explicit Sync calls and
// segment rolls.
func (s *Store) DurableOffset() (seg uint64, off int64) {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	return s.durSeg, s.durOff
}

// Open opens (creating if necessary) a store in dir with the default
// SyncOnClose policy. An empty dir gives a volatile in-memory store with
// identical semantics minus durability.
func Open(dir string) (*Store, error) {
	return OpenWith(dir, Options{})
}

// OpenWith opens a store with explicit durability and engine options.
func OpenWith(dir string, opts Options) (*Store, error) {
	if opts.CommitInterval < 0 {
		opts.CommitInterval = 0
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	s := &Store{dir: dir, opts: opts}
	s.shards = make([]*shard, IndexShards)
	for i := range s.shards {
		s.shards[i] = &shard{data: make(map[string]entry)}
	}
	s.segMetas = make(map[uint64]*segMeta)
	s.pinned = make(map[uint64]int)
	s.gcCond = sync.NewCond(&s.gcMu)
	if dir == "" {
		return s, nil
	}
	s.durable = true
	if err := s.openSegments(); err != nil {
		return nil, err
	}
	if opts.CompactEvery > 0 {
		s.compactStop = make(chan struct{})
		s.compactWG.Add(1)
		go s.compactLoop()
	}
	return s, nil
}

// shardFor hashes key (FNV-1a) onto its lock stripe.
func (s *Store) shardFor(key []byte) *shard {
	return s.shards[s.shardIndex(key)]
}

func (s *Store) shardIndex(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h & (IndexShards - 1)
}

// append writes a record to the active segment and flushes it to the OS,
// rolling the segment when it fills. Under SyncGroupCommit the caller
// must wait on waitDurable(seq) AFTER releasing its locks. Caller holds
// logMu.
func (s *Store) append(kind byte, body []byte) error {
	if s.file == nil {
		s.seq++
		s.seqNow.Store(s.seq)
		return nil // in-memory store
	}
	if s.walErr != nil {
		return fmt.Errorf("kvstore: log failed: %w", s.walErr)
	}
	rec := encodeRecord(kind, body)
	if _, err := s.w.Write(rec); err != nil {
		s.walErr = err
		return fmt.Errorf("kvstore: append: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		s.walErr = err
		return fmt.Errorf("kvstore: flush: %w", err)
	}
	s.bytesLogged += int64(len(rec))
	s.activeBytes += int64(len(rec))
	s.activeCRC = crc32.Update(s.activeCRC, crc32.IEEETable, rec)
	s.seq++
	s.seqNow.Store(s.seq)
	if s.opts.Sync == SyncGroupCommit {
		// Publish the byte position of this record so the commit leader
		// covering it can advance the durable byte horizon exactly.
		s.gcMu.Lock()
		s.gcBytesSeg, s.gcBytesOff = s.activeID, s.activeBytes
		s.gcMu.Unlock()
	}
	if s.activeBytes >= s.opts.SegmentBytes {
		if err := s.roll(); err != nil {
			// The record itself is flushed, but the store can no longer
			// promise clean segment boundaries: refuse further writes.
			s.walErr = err
			return fmt.Errorf("kvstore: segment roll: %w", err)
		}
		if o := s.observer(); o != nil && o.SegmentRolls != nil {
			o.SegmentRolls()
		}
	}
	return nil
}

// waitDurableCtx is waitDurable plus observability: a "kv.commit_wait"
// span on the context's trace (if any) and the observer's commit-wait
// histogram. With no observer and no trace it collapses to waitDurable
// — one atomic load and one context lookup. Reached only through
// Store.commit, directly or from a commit set, so only on durable
// group-commit stores.
func (s *Store) waitDurableCtx(ctx context.Context, seq int64) error {
	o := s.observer()
	if o == nil || o.CommitWaitSeconds == nil {
		if obs.FromContext(ctx) == nil {
			return s.waitDurable(seq)
		}
		end := obs.StartSpan(ctx, "kv.commit_wait")
		err := s.waitDurable(seq)
		end()
		return err
	}
	end := obs.StartSpan(ctx, "kv.commit_wait")
	t0 := time.Now()
	err := s.waitDurable(seq)
	end()
	o.CommitWaitSeconds(time.Since(t0))
	return err
}

// waitDurable blocks until record seq is on stable storage (group-commit
// stores only; a no-op otherwise). Must be called WITHOUT any store lock
// held: the commit leader fsyncs lock-free so new appends keep landing in
// the next window. The first waiter of a window becomes the leader,
// issues one file.Sync() on the active segment covering every record
// appended so far (sealed segments are already durable), and wakes the
// rest.
func (s *Store) waitDurable(seq int64) error {
	if !s.durable || s.opts.Sync != SyncGroupCommit {
		return nil
	}
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	if seq > s.gcAppended {
		s.gcAppended = seq
	}
	for {
		if s.gcDurable >= seq {
			return nil
		}
		if s.gcErr != nil {
			return s.gcErr
		}
		if s.gcSyncing || s.gcSwapping {
			s.gcCond.Wait()
			continue
		}
		// Become the commit leader.
		s.gcSyncing = true
		if s.opts.CommitInterval > 0 {
			s.gcMu.Unlock()
			time.Sleep(s.opts.CommitInterval)
			s.gcMu.Lock()
		}
		target := s.gcAppended
		bytesSeg, bytesOff := s.gcBytesSeg, s.gcBytesOff
		f := s.file
		s.gcMu.Unlock()
		var err error
		if o := s.observer(); o != nil && o.FsyncSeconds != nil {
			t0 := time.Now()
			err = f.Sync()
			o.FsyncSeconds(time.Since(t0))
		} else {
			err = f.Sync()
		}
		s.gcMu.Lock()
		s.gcSyncing = false
		if err != nil {
			s.gcErr = fmt.Errorf("kvstore: group commit fsync: %w", err)
		} else {
			if target > s.gcDurable {
				s.gcDurable = target
			}
			// No swap can start while gcSyncing was set, so (bytesSeg,
			// bytesOff) still names a position inside the file we just
			// fsynced (or an earlier, already-durable segment).
			s.advanceDurable(bytesSeg, bytesOff)
		}
		s.gcCond.Broadcast()
	}
}

// markAllDurable records that every record appended so far is fsynced,
// waking pending group-commit waiters. Called with logMu held right after
// a successful full sync. A poisoned window (gcErr set) stays poisoned:
// after any failed fsync the kernel may already have dropped dirty pages,
// leaving a hole earlier in the log that a later successful sync cannot
// fill — records after the hole are unreachable by replay, so they must
// never be acknowledged as durable.
func (s *Store) markAllDurable() {
	if s.opts.Sync != SyncGroupCommit {
		return
	}
	s.gcMu.Lock()
	if s.seq > s.gcAppended {
		s.gcAppended = s.seq
	}
	if s.gcErr == nil && s.seq > s.gcDurable {
		s.gcDurable = s.seq
	}
	s.gcCond.Broadcast()
	s.gcMu.Unlock()
}

// beginFileSwap blocks new commit leaders and drains the in-flight one,
// so the caller (Close, segment roll) may close or replace s.file without
// racing a leader's file.Sync(). Called with logMu held, so no new record
// can be appended during the swap. Must be paired with endFileSwap or
// abortFileSwap.
func (s *Store) beginFileSwap() {
	if s.opts.Sync != SyncGroupCommit {
		return
	}
	s.gcMu.Lock()
	s.gcSwapping = true
	for s.gcSyncing {
		s.gcCond.Wait()
	}
	s.gcMu.Unlock()
}

// endFileSwap reopens the commit window and marks every record appended
// before the swap durable: the swap fsynced the outgoing segment, and the
// incoming one is empty. Poisoned windows stay poisoned (see
// markAllDurable).
func (s *Store) endFileSwap() {
	if s.opts.Sync != SyncGroupCommit {
		return
	}
	s.gcMu.Lock()
	s.gcSwapping = false
	if s.seq > s.gcAppended {
		s.gcAppended = s.seq
	}
	if s.gcErr == nil && s.seq > s.gcDurable {
		s.gcDurable = s.seq
	}
	s.gcCond.Broadcast()
	s.gcMu.Unlock()
}

// Health reports the store's sticky WAL failure, if any: the append-
// path error (write or flush) or, under group commit, the sticky fsync
// error. nil means the durability machinery is
// working; non-nil means every further mutation is being refused, and
// health probes should report the store failing.
func (s *Store) Health() error {
	s.logMu.Lock()
	err := s.walErr
	s.logMu.Unlock()
	if err != nil {
		return err
	}
	return s.gcPoisoned()
}

// PoisonWAL injects a sticky log failure, exactly as if the store's next
// fsync had returned err. It exists for fault-injection tests (health
// probes, crash suites, failed boundary waits); production code never
// calls it. On a durable group-commit store the failed fsync is the
// commit leader's: appends keep reaching the log, and every durability
// wait from then on — a write's own, or a commit set's at its boundary —
// returns the error. On every other store (in memory, or SyncOnClose) it
// is the append path's, and mutations are refused outright. A nil err is ignored, and an
// already-poisoned store keeps its first error — matching the sticky
// semantics of real failures.
func (s *Store) PoisonWAL(err error) {
	if err == nil {
		return
	}
	if s.durable && s.opts.Sync == SyncGroupCommit {
		s.gcMu.Lock()
		if s.gcErr == nil {
			s.gcErr = err
		}
		s.gcCond.Broadcast()
		s.gcMu.Unlock()
		return
	}
	s.logMu.Lock()
	if s.walErr == nil {
		s.walErr = err
	}
	s.logMu.Unlock()
}

// gcPoisoned reports the sticky group-commit fsync error, if any. Safe
// under logMu (lock order logMu → gcMu).
func (s *Store) gcPoisoned() error {
	if s.opts.Sync != SyncGroupCommit {
		return nil
	}
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	return s.gcErr
}

// abortFileSwap poisons the commit window after a failed swap so waiters
// error out instead of hanging.
func (s *Store) abortFileSwap(err error) {
	if s.opts.Sync != SyncGroupCommit {
		return
	}
	s.gcMu.Lock()
	s.gcSwapping = false
	if s.gcErr == nil {
		s.gcErr = fmt.Errorf("kvstore: log swap failed: %w", err)
	}
	s.gcCond.Broadcast()
	s.gcMu.Unlock()
}

func validateKV(key, val []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > maxKeyLen || len(val) > maxValLen {
		return errors.New("kvstore: key or value too large")
	}
	return nil
}

// put logs and applies one put under its shard lock, returning the
// record's seq for the caller's durability wait.
func (s *Store) put(key, val []byte) (int64, error) {
	if err := validateKV(key, val); err != nil {
		return 0, err
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	seq, err := s.logAndApply(sh, op{key: key, val: append([]byte(nil), val...)})
	sh.mu.Unlock()
	return seq, err
}

// logAndApply appends one put/del record and applies it to sh. Caller
// holds sh.mu; o.val must be owned by the store.
func (s *Store) logAndApply(sh *shard, o op) (int64, error) {
	kind := kindPut
	if o.del {
		kind = kindDel
	}
	s.logMu.Lock()
	if s.closed {
		s.logMu.Unlock()
		return 0, ErrClosed
	}
	// The record lands in the segment that is active NOW; append may
	// roll to a fresh segment afterwards, but only after writing it.
	seg := s.activeID
	err := s.append(kind, encodePutBody(o.key, o.val))
	seq := s.seq
	if err == nil && s.durable {
		s.metaFor(seg).note(s, []op{o})
	}
	s.logMu.Unlock()
	if err != nil {
		return 0, err
	}
	s.liveBytes.Add(s.applyOp(sh, o, seg))
	return seq, nil
}

// Put stores val under key. Under SyncGroupCommit the value
// is on stable storage when Put returns nil.
func (s *Store) Put(key, val []byte) error {
	return s.PutCtx(context.Background(), key, val)
}

// PutCtx is Put threaded through a request context: when the context
// carries a trace (obs.WithTrace) the group-commit wait is recorded as
// a span on it, and when it carries a commit set (BeginCommit) the wait
// is left to the set's owner.
func (s *Store) PutCtx(ctx context.Context, key, val []byte) error {
	seq, err := s.put(key, val)
	if err != nil {
		return err
	}
	return s.commit(ctx, seq)
}

// PutIfAbsent stores val under key only if the key is currently absent
// and reports whether the write happened. Check and write are atomic
// under the key's shard lock, making this the store's compare-and-set
// primitive: concurrent callers racing on the same key see exactly one
// true. The provider's redeemed-serial set and the bank's spent-coin
// ledger rely on this for their double-spend gates. Both answers obey
// the store's durability policy before returning: a winner waits for
// its own record, and a loser waits for the record it lost to — the
// observed "already present" must not be rolled back by a crash after
// the caller has acted on it (e.g. reported a coin double-spent).
func (s *Store) PutIfAbsent(key, val []byte) (bool, error) {
	return s.PutIfAbsentCtx(context.Background(), key, val)
}

// PutIfAbsentCtx is PutIfAbsent threaded through a request context (see
// PutCtx). Under a commit set the loser notes the record it lost to just
// as the winner notes its own.
func (s *Store) PutIfAbsentCtx(ctx context.Context, key, val []byte) (bool, error) {
	if err := validateKV(key, val); err != nil {
		return false, err
	}
	if s.closedFlag.Load() {
		return false, ErrClosed
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	if _, ok := sh.data[string(key)]; ok {
		// The record establishing the key was appended (and its seq
		// published) before the winner's map insert under this shard
		// lock, so the current seq covers it.
		seq := s.seqNow.Load()
		sh.mu.Unlock()
		return false, s.commit(ctx, seq)
	}
	seq, err := s.logAndApply(sh, op{key: key, val: append([]byte(nil), val...)})
	sh.mu.Unlock()
	if err != nil {
		return false, err
	}
	return true, s.commit(ctx, seq)
}

// Get returns a copy of the value for key.
func (s *Store) Get(key []byte) ([]byte, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.data[string(key)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), e.val...), true
}

// Has reports presence without copying the value.
func (s *Store) Has(key []byte) bool {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.data[string(key)]
	return ok
}

// Delete removes key; deleting an absent key is a no-op (but still logged
// for idempotent replay).
func (s *Store) Delete(key []byte) error {
	return s.DeleteCtx(context.Background(), key)
}

// DeleteCtx is Delete threaded through a request context (see PutCtx).
func (s *Store) DeleteCtx(ctx context.Context, key []byte) error {
	// Full validation, not just the empty-key check: an oversized key
	// would be acknowledged here and then rejected by readRecord at
	// replay — fatal once the segment seals.
	if err := validateKV(key, nil); err != nil {
		return err
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	seq, err := s.logAndApply(sh, op{del: true, key: key})
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	return s.commit(ctx, seq)
}

// Batch collects operations applied atomically by Apply.
type Batch struct {
	ops []op
}

// Put adds a put to the batch.
func (b *Batch) Put(key, val []byte) *Batch {
	b.ops = append(b.ops, op{key: append([]byte(nil), key...), val: append([]byte(nil), val...)})
	return b
}

// Delete adds a delete to the batch.
func (b *Batch) Delete(key []byte) *Batch {
	b.ops = append(b.ops, op{del: true, key: append([]byte(nil), key...)})
	return b
}

// Len reports the number of operations queued.
func (b *Batch) Len() int { return len(b.ops) }

// Apply writes the batch as a single atomic log record and applies it.
// Every shard the batch touches is locked (in ascending shard order, to
// stay deadlock-free against other batches) across the append and the
// index update, so concurrent per-key CAS operations serialize against
// the whole batch.
func (s *Store) Apply(b *Batch) error {
	return s.ApplyCtx(context.Background(), b)
}

// ApplyCtx is Apply threaded through a request context: the whole
// batch is recorded as a "kv.apply_batch" span (with the commit wait
// nested inside it unless a commit set defers it, see PutCtx) on the
// context's trace, and the observer's batch-size histogram sees len(b).
func (s *Store) ApplyCtx(ctx context.Context, b *Batch) error {
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	if o := s.observer(); o != nil && o.BatchOps != nil {
		o.BatchOps(len(b.ops))
	}
	end := obs.StartSpan(ctx, "kv.apply_batch")
	err := s.applyBatch(ctx, b)
	end()
	return err
}

func (s *Store) applyBatch(ctx context.Context, b *Batch) error {
	for _, o := range b.ops {
		if err := validateKV(o.key, o.val); err != nil {
			return err
		}
	}
	// Encode the record body BEFORE taking any lock — it depends only on
	// the batch — and bound it by what readRecord will accept on replay:
	// a larger record would be acknowledged now and then rejected at
	// Open, which strict sealed-segment replay treats as corruption.
	size := 4
	for _, o := range b.ops {
		size += 1 + 4 + len(o.key) + 4 + len(o.val)
	}
	if size > maxRecordBody {
		return fmt.Errorf("kvstore: batch encodes to %d bytes, limit %d", size, maxRecordBody)
	}
	body := make([]byte, size)
	binary.BigEndian.PutUint32(body[:4], uint32(len(b.ops)))
	off := 4
	for _, o := range b.ops {
		if o.del {
			body[off] = 1
		}
		binary.BigEndian.PutUint32(body[off+1:off+5], uint32(len(o.key)))
		off += 5
		copy(body[off:], o.key)
		off += len(o.key)
		binary.BigEndian.PutUint32(body[off:off+4], uint32(len(o.val)))
		off += 4
		copy(body[off:], o.val)
		off += len(o.val)
	}
	// Collect the distinct shards, lock them in index order.
	touched := make([]bool, len(s.shards))
	for _, o := range b.ops {
		touched[s.shardIndex(o.key)] = true
	}
	locked := make([]int, 0, len(b.ops))
	for i, t := range touched {
		if t {
			s.shards[i].mu.Lock()
			locked = append(locked, i)
		}
	}
	unlock := func() {
		for _, i := range locked {
			s.shards[i].mu.Unlock()
		}
	}

	s.logMu.Lock()
	if s.closed {
		s.logMu.Unlock()
		unlock()
		return ErrClosed
	}
	seg := s.activeID
	err := s.append(kindBatch, body)
	seq := s.seq
	if err == nil && s.durable {
		s.metaFor(seg).note(s, b.ops)
	}
	s.logMu.Unlock()
	if err != nil {
		unlock()
		return err
	}
	var delta int64
	for _, o := range b.ops {
		delta += s.applyOp(s.shardFor(o.key), o, seg)
	}
	unlock()
	s.liveBytes.Add(delta)
	return s.commit(ctx, seq)
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		total += len(sh.data)
		sh.mu.RUnlock()
	}
	return total
}

// snapshot copies the full live set while holding every shard read lock,
// so it is a consistent point-in-time view even against batch writers.
func (s *Store) snapshot() []op {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	n := 0
	for _, sh := range s.shards {
		n += len(sh.data)
	}
	pairs := make([]op, 0, n)
	for _, sh := range s.shards {
		for k, e := range sh.data {
			pairs = append(pairs, op{key: []byte(k), val: append([]byte(nil), e.val...)})
		}
	}
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
	sort.Slice(pairs, func(i, j int) bool { return bytes.Compare(pairs[i].key, pairs[j].key) < 0 })
	return pairs
}

// ForEach visits every live pair in sorted key order. The callback
// receives copies and may not mutate the store; returning false stops
// iteration early.
func (s *Store) ForEach(fn func(key, val []byte) bool) {
	for _, p := range s.snapshot() {
		if !fn(p.key, p.val) {
			return
		}
	}
}

// PrefixScan visits live pairs whose key begins with prefix, sorted.
func (s *Store) PrefixScan(prefix []byte, fn func(key, val []byte) bool) {
	s.ForEach(func(k, v []byte) bool {
		if !bytes.HasPrefix(k, prefix) {
			return true
		}
		return fn(k, v)
	})
}

// PrefixScanRelaxed visits live pairs whose key begins with prefix
// WITHOUT a global snapshot: shards are scanned one at a time under
// their own read lock, so at no point do all writers wait at once, and
// only matching pairs are copied. The trade-offs versus PrefixScan:
// order is unspecified, and the view is only per-shard consistent — a
// key inserted or deleted mid-scan may or may not be visited (a key
// live for the whole scan is visited exactly once). Long scans over
// large stores (the revocation list's filter cut and its count) use
// this so they never stall the write path. The callback receives
// copies; one shard's copies share one allocation, so a callback that
// keeps a key keeps that shard's copies alive with it.
func (s *Store) PrefixScanRelaxed(prefix []byte, fn func(key, val []byte) bool) {
	p := string(prefix) // one conversion, not one per key
	for _, sh := range s.shards {
		sh.mu.RLock()
		// Size the shard's copies once: a counting pass, then one pair
		// slice and one byte arena the visited keys and values are
		// capped sub-slices of (an append to one cannot reach the next).
		n, size := 0, 0
		for k, e := range sh.data {
			if strings.HasPrefix(k, p) {
				n++
				size += len(k) + len(e.val)
			}
		}
		pairs := make([]op, 0, n)
		arena := make([]byte, 0, size)
		for k, e := range sh.data {
			if strings.HasPrefix(k, p) {
				at := len(arena)
				arena = append(append(arena, k...), e.val...)
				kEnd := at + len(k)
				pairs = append(pairs, op{key: arena[at:kEnd:kEnd], val: arena[kEnd:len(arena):len(arena)]})
			}
		}
		sh.mu.RUnlock()
		for _, p := range pairs {
			if !fn(p.key, p.val) {
				return
			}
		}
	}
}

// Sync forces the active segment to stable storage (sealed segments
// already are). A poisoned store (sticky append or group-fsync failure)
// reports its poison instead of syncing: after a failed fsync the kernel
// may have dropped pages mid-segment, so a later successful file.Sync()
// must not be read as "everything before here is durable".
func (s *Store) Sync() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.file == nil {
		return nil
	}
	if s.walErr != nil {
		return fmt.Errorf("kvstore: log failed: %w", s.walErr)
	}
	if err := s.gcPoisoned(); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	o := s.observer()
	var t0 time.Time
	if o != nil && o.FsyncSeconds != nil {
		t0 = time.Now()
	}
	if err := s.file.Sync(); err != nil {
		return err
	}
	if o != nil && o.FsyncSeconds != nil {
		o.FsyncSeconds(time.Since(t0))
	}
	s.markAllDurable()
	s.advanceDurable(s.activeID, s.activeBytes)
	return nil
}

// GarbageRatio reports wasted log fraction; callers compact when it grows.
func (s *Store) GarbageRatio() float64 {
	s.logMu.Lock()
	logged := s.bytesLogged
	s.logMu.Unlock()
	if logged == 0 {
		return 0
	}
	waste := float64(logged-s.liveBytes.Load()) / float64(logged)
	if waste < 0 {
		return 0
	}
	return waste
}

// Stats is a point-in-time snapshot of the engine's shape, surfaced by
// the daemon's GET /v2/stats.
type Stats struct {
	// Segments counts log segment files, including the active one
	// (0 for in-memory stores).
	Segments int `json:"segments"`
	// LiveKeys is the number of live keys in the index.
	LiveKeys int `json:"live_keys"`
	// LiveBytes estimates the log bytes a fully compacted live set would
	// occupy (key + value + per-record framing for each live key).
	LiveBytes int64 `json:"live_bytes"`
	// LoggedBytes is the on-disk byte total across all segments.
	LoggedBytes int64 `json:"logged_bytes"`
	// DeadBytes is LoggedBytes minus LiveBytes, floored at zero — the
	// incremental compactor's food supply.
	DeadBytes int64 `json:"dead_bytes"`
	// Compactions counts completed incremental compaction steps.
	Compactions int64 `json:"compactions"`
	// CompactionSkips counts compaction steps that skipped a sealed
	// segment because its per-segment metadata proved every record in it
	// still matches the live index (a rewrite would be an identity).
	CompactionSkips int64 `json:"compaction_skips"`
	// IndexShards is the index lock-stripe count (the constant
	// IndexShards).
	IndexShards int `json:"index_shards"`
}

// Stats returns current engine statistics.
func (s *Store) Stats() Stats {
	st := Stats{
		LiveKeys:        s.Len(),
		LiveBytes:       s.liveBytes.Load(),
		Compactions:     s.compactions.Load(),
		CompactionSkips: s.compactSkips.Load(),
		IndexShards:     len(s.shards),
	}
	s.logMu.Lock()
	st.LoggedBytes = s.bytesLogged
	if s.file != nil {
		st.Segments = len(s.sealed) + 1
	}
	s.logMu.Unlock()
	if st.DeadBytes = st.LoggedBytes - st.LiveBytes; st.DeadBytes < 0 {
		st.DeadBytes = 0
	}
	return st
}

// Close flushes, fsyncs and closes the store, stopping the background
// compactor first. Further operations fail with ErrClosed; Get/Has keep
// answering from memory for reads-after-close safety in shutdown paths.
// Pending group-commit waiters are released: satisfied by the final
// fsync, or errored if it fails.
func (s *Store) Close() error {
	if s.compactStop != nil {
		s.compactOnce.Do(func() { close(s.compactStop) })
		s.compactWG.Wait()
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.closedFlag.Store(true)
	if s.file == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		s.abortFileSwap(err)
		s.file.Close()
		return err
	}
	if err := s.file.Sync(); err != nil {
		s.abortFileSwap(err)
		s.file.Close()
		return err
	}
	// A poisoned log (sticky append or group-fsync failure) may carry a
	// hole the fsync above cannot heal; advancing the replication
	// horizon over it would let a still-tailing follower fetch bytes
	// the store never durably held. Mirror markAllDurable's refusal.
	if s.walErr == nil && s.gcPoisoned() == nil {
		s.advanceDurable(s.activeID, s.activeBytes)
	}
	s.beginFileSwap()
	s.endFileSwap()
	return s.file.Close()
}
