package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2drm/internal/kvstore"
)

// ErrReadOnly rejects writes through a follower that has not been
// promoted: a replica that accepted a write would silently fork from
// the primary's history.
var ErrReadOnly = errors.New("replica: follower is read-only (not promoted)")

// errEpochChanged marks a response from a different primary incarnation
// than the cursor was built against; the follower must re-snapshot.
var errEpochChanged = errors.New("replica: primary epoch changed")

// needsSnapshot reports whether err can only be resolved by abandoning
// the cursor and bootstrapping from a fresh snapshot.
func needsSnapshot(err error) bool {
	return errors.Is(err, kvstore.ErrSegmentGone) || errors.Is(err, errEpochChanged)
}

// ErrPromoted is returned by Open for a state directory that was
// promoted to primary: resuming replica mode against it would resync
// from some primary and silently destroy every write accepted after
// the promotion.
var ErrPromoted = errors.New("replica: state dir was promoted to primary; refusing replica mode")

const (
	currentMarker  = "CURRENT"
	promotedMarker = "PROMOTED"
	cursorFile     = "replica-cursor.json"

	defaultPoll       = 250 * time.Millisecond
	defaultMaxChunk   = 1 << 20
	defaultBackoffMin = 100 * time.Millisecond
	defaultBackoffMax = 5 * time.Second
	// maxChunkCap bounds adaptive chunk growth; it must exceed the
	// largest possible WAL record so a single record always fits one
	// chunk eventually.
	maxChunkCap = 128 << 20

	// maxApplyOps/maxApplyBytes bound one coalesced apply batch: several
	// primary records are folded into a single follower WAL record (and
	// one group-commit fsync), which is what makes catch-up fast.
	// Atomicity is preserved — a batch is a superset of whole primary
	// records, so a crash never exposes half a primary record.
	maxApplyOps   = 1024
	maxApplyBytes = 1 << 19
)

// Options configure a follower.
type Options struct {
	// Dir is the follower's state directory. The follower manages
	// generation subdirectories (g000001, …) plus a CURRENT marker
	// inside it, so a snapshot fallback can build a fresh store while
	// the old one keeps serving and swap atomically. Empty = in-memory
	// (volatile) follower.
	Dir string
	// Fetch is the primary transport.
	Fetch Fetcher
	// KV are the options for the follower's own store. On a durable
	// follower, SyncOnClose is upgraded to SyncGroupCommit: the cursor
	// is persisted after records are applied, which is only
	// crash-correct when an applied record is already durable.
	KV kvstore.Options
	// PollInterval is the idle tail poll (default 250ms).
	PollInterval time.Duration
	// BackoffMin/BackoffMax bound the reconnect backoff after fetch
	// errors (defaults 100ms / 5s).
	BackoffMin, BackoffMax time.Duration
	// MaxChunk is the initial per-request byte budget (default 1MiB);
	// it grows automatically when a single record doesn't fit.
	MaxChunk int64
	// Logf, when set, receives progress lines (daemon logging).
	Logf func(format string, args ...any)
}

// Cursor is the follower's replication position: the next byte to fetch
// is offset Off of primary segment Seg (generation Gen), valid only
// within primary incarnation Epoch.
type Cursor struct {
	Epoch string `json:"epoch"`
	Seg   uint64 `json:"seg"`
	Off   int64  `json:"off"`
	Gen   uint64 `json:"gen"`
}

// Status is a point-in-time view of replication health, served by the
// follower's /v2/replica/status.
type Status struct {
	State    string `json:"state"` // init|snapshotting|tailing|error|promoted|stopped
	Epoch    string `json:"epoch,omitempty"`
	Cursor   Cursor `json:"cursor"`
	CaughtUp bool   `json:"caught_up"`
	// LagBytes is the byte distance to the primary's durable horizon
	// within the current segment (-1 = unknown, e.g. before the first
	// fetch or right after crossing into a new segment).
	LagBytes int64 `json:"lag_bytes"`
	// LagSegments counts whole primary segments between the cursor and
	// the primary's active segment (0 = tailing the active segment,
	// -1 = unknown, e.g. before the first fetch).
	LagSegments int64     `json:"lag_segments"`
	LastContact time.Time `json:"last_contact,omitempty"`
	LastError   string    `json:"last_error,omitempty"`
	Records     int64     `json:"records_applied"`
	Bytes       int64     `json:"bytes_applied"`
	Resyncs     int64     `json:"resyncs"`
	Promoted    bool      `json:"promoted"`
}

// Observer receives replication timing events for the observability
// plane. Every field is optional; callbacks run inline on the tail
// loop and must be fast and concurrency-safe.
type Observer struct {
	// FetchSeconds observes each primary chunk fetch (tail and snapshot).
	FetchSeconds func(time.Duration)
	// ApplySeconds observes each local batch-apply of fetched bytes.
	ApplySeconds func(time.Duration)
}

// Follower tails a primary into its own local store and serves
// read-only traffic from it.
type Follower struct {
	opts     Options
	maxChunk atomic.Int64
	// obsHook is the optional timing observer (SetObserver); atomic so
	// the tail loop reads it lock-free.
	obsHook atomic.Pointer[Observer]

	mu      sync.RWMutex
	store   *kvstore.Store
	genName string // current generation subdirectory ("" when in-memory)
	cursor  Cursor
	// persistedCursor is the value last written to the sidecar file, so
	// idle tail polls (cursor unchanged) skip the rewrite entirely.
	persistedCursor Cursor
	status          Status
	promoted        bool
	// promoteMu serializes Promote, so two concurrent calls cannot both
	// see the follower unpromoted and race on the marker.
	promoteMu sync.Mutex

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
	// resyncCh carries explicit snapshot-bootstrap requests (the REST
	// plane's POST /v2/replica/resync operation) into the tail loop,
	// which is the only goroutine allowed to run resync.
	resyncCh chan chan error
}

// Open prepares a follower (without starting its tail loop): the state
// directory is recovered (CURRENT generation opened, stale generations
// and a persisted cursor picked up) so a restarted follower resumes
// where it durably left off.
func Open(opts Options) (*Follower, error) {
	if opts.Fetch == nil {
		return nil, errors.New("replica: Options.Fetch is required")
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = defaultPoll
	}
	if opts.BackoffMin <= 0 {
		opts.BackoffMin = defaultBackoffMin
	}
	if opts.BackoffMax < opts.BackoffMin {
		opts.BackoffMax = defaultBackoffMax
	}
	if opts.MaxChunk <= 0 {
		opts.MaxChunk = defaultMaxChunk
	}
	if opts.Dir != "" && opts.KV.Sync == kvstore.SyncOnClose {
		opts.KV.Sync = kvstore.SyncGroupCommit
	}
	f := &Follower{
		opts:     opts,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		resyncCh: make(chan chan error, 1),
	}
	f.maxChunk.Store(opts.MaxChunk)
	f.status.State = "init"
	// Lag is unknown (-1) until the first primary contact; 0 would be
	// indistinguishable from "caught up" for health probes and scrapes.
	f.status.LagSegments = -1
	f.status.LagBytes = -1

	if opts.Dir == "" {
		st, err := kvstore.OpenWith("", opts.KV)
		if err != nil {
			return nil, err
		}
		f.store = st
		return f, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("replica: state dir: %w", err)
	}
	if _, err := os.Stat(filepath.Join(opts.Dir, promotedMarker)); err == nil {
		return nil, ErrPromoted
	}
	genName, err := readCurrent(opts.Dir)
	if err != nil {
		return nil, err
	}
	if genName == "" {
		genName = genDirName(1)
		if err := writeCurrent(opts.Dir, genName); err != nil {
			return nil, err
		}
	}
	removeStaleGens(opts.Dir, genName)
	st, err := kvstore.OpenWith(filepath.Join(opts.Dir, genName), opts.KV)
	if err != nil {
		return nil, fmt.Errorf("replica: open store: %w", err)
	}
	f.store = st
	f.genName = genName
	if cur, err := readCursorFile(filepath.Join(opts.Dir, genName, cursorFile)); err == nil {
		f.cursor = cur
		f.persistedCursor = cur
		f.status.Cursor = cur
		f.status.Epoch = cur.Epoch
	}
	return f, nil
}

func genDirName(n int) string { return fmt.Sprintf("g%06d", n) }

func readCurrent(dir string) (string, error) {
	b, err := os.ReadFile(filepath.Join(dir, currentMarker))
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", fmt.Errorf("replica: read CURRENT: %w", err)
	}
	return strings.TrimSpace(string(b)), nil
}

// writeCurrent atomically repoints the CURRENT marker (tmp + fsync +
// rename + dir fsync), the commit point of a store-generation swap. The
// tmp fsync is load-bearing: without it a crash after the journaled
// rename but before the data hits disk can leave CURRENT empty, and
// Open would then treat the state directory as fresh and delete the
// real generation.
func writeCurrent(dir, genName string) error {
	tmp := filepath.Join(dir, currentMarker+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(genName + "\n"); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, currentMarker)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the entries created or renamed in
// it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// removeStaleGens deletes generation directories other than keep —
// leftovers of resyncs that crashed before their swap committed.
func removeStaleGens(dir, keep string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() && strings.HasPrefix(name, "g") && name != keep {
			os.RemoveAll(filepath.Join(dir, name))
		}
	}
}

func readCursorFile(path string) (Cursor, error) {
	var c Cursor
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, err
	}
	return c, nil
}

// persistCursor writes the cursor sidecar (tmp + rename), skipping the
// write when the on-disk value is already current (idle tail polls).
// Called only after the records it covers were durably applied; a
// failure is logged and tolerated — a stale cursor just means
// idempotent re-apply after a restart.
func (f *Follower) persistCursor(cur Cursor) {
	f.mu.RLock()
	dir, gen := f.opts.Dir, f.genName
	same := f.persistedCursor == cur
	f.mu.RUnlock()
	if dir == "" || same {
		return
	}
	b, _ := json.Marshal(cur)
	path := filepath.Join(dir, gen, cursorFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err == nil {
		if err := os.Rename(tmp, path); err != nil {
			f.logf("replica: persist cursor: %v", err)
			return
		}
		f.mu.Lock()
		f.persistedCursor = cur
		f.mu.Unlock()
	} else {
		f.logf("replica: persist cursor: %v", err)
	}
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// SetObserver installs (or clears, with nil) the timing observer.
// Intended to be called once, before Start.
func (f *Follower) SetObserver(o *Observer) { f.obsHook.Store(o) }

// fetchTimed wraps one Fetcher.Segment call with the observer's fetch
// histogram.
func (f *Follower) fetchTimed(id uint64, from, max int64, wantGen uint64, pinID string) (*Chunk, error) {
	o := f.obsHook.Load()
	if o == nil || o.FetchSeconds == nil {
		return f.opts.Fetch.Segment(id, from, max, wantGen, pinID)
	}
	t0 := time.Now()
	ch, err := f.opts.Fetch.Segment(id, from, max, wantGen, pinID)
	o.FetchSeconds(time.Since(t0))
	return ch, err
}

// Start launches the tail loop (idempotent).
func (f *Follower) Start() {
	f.startOnce.Do(func() { go f.run() })
}

// stopLoop signals the loop and waits for it; safe if never started.
func (f *Follower) stopLoop() {
	f.stopOnce.Do(func() { close(f.stop) })
	// If Start never ran, consume startOnce so no loop can start later,
	// and close done ourselves so waiters are released.
	f.startOnce.Do(func() { close(f.done) })
	<-f.done
}

// Close stops replication and closes the local store (unless the store
// was handed over by Promote).
func (f *Follower) Close() error {
	f.stopLoop()
	f.mu.Lock()
	st, promoted := f.store, f.promoted
	f.status.State = "stopped"
	f.mu.Unlock()
	if promoted || st == nil {
		return nil
	}
	return st.Close()
}

// run is the reconnect/backoff loop: apply as fast as the primary
// feeds us, poll when caught up, back off exponentially on errors, and
// fall back to a fresh snapshot when the cursor is unrecoverable.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.opts.BackoffMin
	for {
		select {
		case <-f.stop:
			return
		case reply := <-f.resyncCh:
			f.handleResync(reply)
			continue
		default:
		}
		progressed, err := f.step()
		switch {
		case err == nil:
			backoff = f.opts.BackoffMin
			if !progressed {
				if !f.sleep(f.opts.PollInterval) {
					return
				}
			}
		case needsSnapshot(err):
			f.setState("snapshotting")
			f.logf("replica: snapshot fallback: %v", err)
			if rerr := f.resync(); rerr != nil {
				f.noteError(rerr)
				if !f.sleep(backoff) {
					return
				}
				backoff = min(backoff*2, f.opts.BackoffMax)
			} else {
				backoff = f.opts.BackoffMin
			}
		default:
			f.noteError(err)
			if !f.sleep(backoff) {
				return
			}
			backoff = min(backoff*2, f.opts.BackoffMax)
		}
	}
}

// sleep waits d or until stopped; reports whether to keep running. An
// explicit resync request cuts the wait short so the operation does not
// idle out a full poll interval.
func (f *Follower) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.stop:
		return false
	case reply := <-f.resyncCh:
		f.handleResync(reply)
		return true
	case <-t.C:
		return true
	}
}

// handleResync runs one explicit snapshot bootstrap on the tail-loop
// goroutine and reports the outcome to the requester.
func (f *Follower) handleResync(reply chan error) {
	f.setState("snapshotting")
	err := f.resync()
	if err != nil {
		f.noteError(err)
	}
	reply <- err
}

// Resync asks the tail loop for an explicit full snapshot bootstrap
// (the entry point behind POST /v2/replica/resync) and waits for it to
// finish. The resync itself is the same pinned-manifest, CRC-verified,
// new-generation-swap path the loop uses for automatic fallbacks, so an
// interrupted call leaves a consistent store and is simply sent again.
func (f *Follower) Resync(ctx context.Context) error {
	reply := make(chan error, 1)
	select {
	case f.resyncCh <- reply:
	case <-ctx.Done():
		return ctx.Err()
	case <-f.done:
		return errors.New("replica: follower stopped")
	}
	select {
	case err := <-reply:
		return err
	case <-ctx.Done():
		return ctx.Err()
	case <-f.done:
		return errors.New("replica: follower stopped")
	}
}

// step performs one tail round: fetch from the cursor, apply, advance.
// It reports whether any progress was made (false = caught up, poll).
func (f *Follower) step() (bool, error) {
	f.mu.RLock()
	cur := f.cursor
	st := f.store
	f.mu.RUnlock()
	if cur.Epoch == "" {
		// No trusted position: bootstrap via snapshot.
		return false, kvstore.ErrSegmentGone
	}
	ch, err := f.fetchTimed(cur.Seg, cur.Off, f.maxChunk.Load(), cur.Gen, "")
	if err != nil {
		return false, err
	}
	if ch.Epoch != cur.Epoch {
		return false, errEpochChanged
	}
	// cur.Gen is an identity EXPECTATION, never adopted from a response:
	// it was established by the manifest (bootstrap), by the previous
	// segment's NextGen (advance), or as 0 for a then-active segment.
	// The primary rejects any sealed read whose gen drifted from it —
	// accepting a compacted rewrite here could silently resurrect keys
	// whose tombstones the rewrite legitimately dropped.
	progressed := false
	if len(ch.Data) > 0 {
		consumed, recs, aerr := f.applyBytes(st, ch.Data)
		if consumed > 0 {
			cur.Off += consumed
			progressed = true
			f.noteApplied(recs, consumed)
		}
		if aerr != nil {
			f.commitCursor(cur, ch)
			return progressed, aerr
		}
		if consumed == 0 {
			// A record larger than the chunk: grow and retry.
			f.maxChunk.Store(min(f.maxChunk.Load()*2, maxChunkCap))
			f.commitCursor(cur, ch)
			return true, nil
		}
	}
	if ch.Sealed && cur.Off >= ch.Total && ch.NextID != 0 {
		cur = Cursor{Epoch: cur.Epoch, Seg: ch.NextID, Off: 0, Gen: ch.NextGen}
		progressed = true
	}
	f.commitCursor(cur, ch)
	return progressed, nil
}

// commitCursor publishes and persists a new cursor plus lag/contact
// status derived from the chunk that produced it.
func (f *Follower) commitCursor(cur Cursor, ch *Chunk) {
	f.mu.Lock()
	f.cursor = cur
	f.status.Cursor = cur
	f.status.Epoch = cur.Epoch
	f.status.State = "tailing"
	f.status.LastContact = time.Now()
	f.status.LastError = ""
	if ch != nil && ch.ID == cur.Seg {
		f.status.LagBytes = ch.Total - cur.Off
		f.status.CaughtUp = !ch.Sealed && cur.Off >= ch.Total
	} else {
		// Crossed into a new segment: lag unknown until the next fetch.
		f.status.LagBytes = -1
		f.status.CaughtUp = false
	}
	switch {
	case ch == nil || ch.ActiveID == 0:
		// Primary predates ActiveID reporting, or nothing fetched yet.
		f.status.LagSegments = -1
	case ch.ActiveID >= cur.Seg:
		f.status.LagSegments = int64(ch.ActiveID - cur.Seg)
	default:
		f.status.LagSegments = 0
	}
	f.mu.Unlock()
	f.persistCursor(cur)
}

// applyBytes decodes whole records from data and applies them to st in
// coalesced atomic batches. It returns the bytes consumed — always a
// record boundary, and never past the last DURABLY applied record when
// an error is returned — plus the number of records applied.
//
// The pending batch is flushed BEFORE a record whose ops would push it
// past the size/op caps, never after: a single primary record always
// lands in a batch of its own when large, so a record the primary
// could acknowledge (≤ maxRecordBody as one WAL record) can never
// coalesce into a follower batch that kvstore.Apply would reject — a
// rejection here would stall replication forever, since every retry
// would rebuild the identical batch.
func (f *Follower) applyBytes(st *kvstore.Store, data []byte) (int64, int64, error) {
	if o := f.obsHook.Load(); o != nil && o.ApplySeconds != nil {
		t0 := time.Now()
		defer func() { o.ApplySeconds(time.Since(t0)) }()
	}
	var lastFlushed, prevEnd, flushedRecs, pendingRecs int64
	batch := new(kvstore.Batch)
	batchBytes := 0
	flush := func(end int64) error {
		if batch.Len() > 0 {
			if err := st.Apply(batch); err != nil {
				return err
			}
			batch = new(kvstore.Batch)
			batchBytes = 0
		}
		// Only records whose batch was durably applied count: a failed
		// retry loop must not inflate the records_applied statistic.
		flushedRecs += pendingRecs
		pendingRecs = 0
		lastFlushed = end
		return nil
	}
	consumed, err := kvstore.ScanRecords(data, func(ops []kvstore.Op, end int64) error {
		// Encoded size of this record's ops under Apply's batch framing
		// (1 flag + 2×4 length prefixes per op, 4 count header).
		recBytes := 4
		for _, o := range ops {
			recBytes += 9 + len(o.Key) + len(o.Val)
		}
		if batch.Len() > 0 && (batchBytes+recBytes > maxApplyBytes || batch.Len()+len(ops) > maxApplyOps) {
			if err := flush(prevEnd); err != nil {
				return err
			}
		}
		for _, o := range ops {
			if o.Del {
				batch.Delete(o.Key)
			} else {
				batch.Put(o.Key, o.Val)
			}
		}
		batchBytes += recBytes
		pendingRecs++
		prevEnd = end
		return nil
	})
	if err == nil {
		err = flush(consumed)
	}
	if err != nil {
		return lastFlushed, flushedRecs, err
	}
	return consumed, flushedRecs, nil
}

// resync bootstraps from a fresh snapshot. A fresh follower fills its
// (empty) store directly; an established one builds the snapshot into a
// NEW store generation while the old store keeps serving reads, then
// swaps atomically via the CURRENT marker. The sealed segments listed
// by the pinned manifest are immune to compaction until released, and
// each is verified against its manifest CRC end to end.
func (f *Follower) resync() error {
	m, err := f.opts.Fetch.Manifest(true)
	if err != nil {
		return err
	}
	defer func() {
		if m.PinID != "" {
			f.opts.Fetch.Release(m.PinID) //nolint:errcheck
		}
	}()
	if len(m.Segments) == 0 {
		return errors.New("replica: empty manifest")
	}

	f.mu.RLock()
	fresh := f.cursor.Epoch == "" && f.store.Len() == 0
	target := f.store
	oldGen := f.genName
	f.mu.RUnlock()

	var newGen string
	if !fresh {
		if f.opts.Dir == "" {
			st, err := kvstore.OpenWith("", f.opts.KV)
			if err != nil {
				return err
			}
			target = st
		} else {
			n := 1
			fmt.Sscanf(oldGen, "g%06d", &n) //nolint:errcheck
			newGen = genDirName(n + 1)
			path := filepath.Join(f.opts.Dir, newGen)
			os.RemoveAll(path)
			st, err := kvstore.OpenWith(path, f.opts.KV)
			if err != nil {
				return err
			}
			target = st
		}
	}
	abandon := func(e error) error {
		if !fresh {
			target.Close()
			if newGen != "" {
				os.RemoveAll(filepath.Join(f.opts.Dir, newGen))
			}
		}
		return e
	}

	for _, seg := range m.Segments {
		if !seg.Sealed {
			continue
		}
		if err := f.fetchSegmentInto(target, m, seg); err != nil {
			return abandon(fmt.Errorf("replica: snapshot segment %d: %w", seg.ID, err))
		}
	}
	active := m.Segments[len(m.Segments)-1]
	cur := Cursor{Epoch: m.Epoch, Seg: active.ID, Off: 0}

	if !fresh {
		if newGen != "" {
			if err := writeCurrent(f.opts.Dir, newGen); err != nil {
				return abandon(err)
			}
		}
		f.mu.Lock()
		old := f.store
		f.store = target
		f.genName = newGen
		// The fresh generation dir has no cursor sidecar yet; reset the
		// dedup state so the first persist always writes.
		f.persistedCursor = Cursor{}
		f.mu.Unlock()
		old.Close() //nolint:errcheck — reads-after-close still answer from memory
		if f.opts.Dir != "" && oldGen != "" {
			os.RemoveAll(filepath.Join(f.opts.Dir, oldGen))
		}
	}

	f.mu.Lock()
	f.cursor = cur
	f.status.Cursor = cur
	f.status.Epoch = cur.Epoch
	f.status.Resyncs++
	f.status.State = "tailing"
	f.mu.Unlock()
	f.persistCursor(cur)
	f.logf("replica: snapshot complete: %d segments, tailing %d", len(m.Segments)-1, cur.Seg)
	return nil
}

// fetchSegmentInto streams one pinned sealed segment into st, carrying
// partial records across chunks and verifying the manifest CRC over the
// full byte stream.
func (f *Follower) fetchSegmentInto(st *kvstore.Store, m *Manifest, seg kvstore.SegmentInfo) error {
	var off int64
	var pending []byte
	sum := crc32.NewIEEE()
	for off < seg.Bytes {
		ch, err := f.fetchTimed(seg.ID, off, f.maxChunk.Load(), seg.Gen, m.PinID)
		if err != nil {
			return err
		}
		if ch.Epoch != m.Epoch {
			return errEpochChanged
		}
		if len(ch.Data) == 0 {
			return fmt.Errorf("replica: empty chunk at %d/%d", off, seg.Bytes)
		}
		sum.Write(ch.Data)
		pending = append(pending, ch.Data...)
		consumed, recs, err := f.applyBytes(st, pending)
		if err != nil {
			return err
		}
		f.noteApplied(recs, consumed)
		pending = append([]byte(nil), pending[consumed:]...)
		off += int64(len(ch.Data))
	}
	if len(pending) != 0 {
		return fmt.Errorf("replica: %d trailing bytes do not form a record", len(pending))
	}
	if got := sum.Sum32(); got != seg.CRC32 {
		return fmt.Errorf("replica: segment %d checksum mismatch: got %08x want %08x", seg.ID, got, seg.CRC32)
	}
	return nil
}

// --- status bookkeeping ---

func (f *Follower) setState(s string) {
	f.mu.Lock()
	f.status.State = s
	f.mu.Unlock()
}

func (f *Follower) noteError(err error) {
	f.logf("replica: %v", err)
	f.mu.Lock()
	f.status.State = "error"
	f.status.LastError = err.Error()
	f.status.CaughtUp = false
	f.mu.Unlock()
}

func (f *Follower) noteApplied(recs, bytes int64) {
	f.mu.Lock()
	f.status.Records += recs
	f.status.Bytes += bytes
	f.mu.Unlock()
}

// Status returns a snapshot of replication health.
func (f *Follower) Status() Status {
	f.mu.RLock()
	defer f.mu.RUnlock()
	st := f.status
	st.Promoted = f.promoted
	return st
}

// --- read-only serving surface ---

// Get reads from the local replica (possibly stale by the current lag).
func (f *Follower) Get(key []byte) ([]byte, bool) {
	f.mu.RLock()
	st := f.store
	f.mu.RUnlock()
	return st.Get(key)
}

// Has reports local presence of key.
func (f *Follower) Has(key []byte) bool {
	f.mu.RLock()
	st := f.store
	f.mu.RUnlock()
	return st.Has(key)
}

// Stats reports the local store's engine statistics.
func (f *Follower) Stats() kvstore.Stats {
	f.mu.RLock()
	st := f.store
	f.mu.RUnlock()
	return st.Stats()
}

// Put writes to the local store — allowed only after Promote.
func (f *Follower) Put(key, val []byte) error {
	f.mu.RLock()
	st, ok := f.store, f.promoted
	f.mu.RUnlock()
	if !ok {
		return ErrReadOnly
	}
	return st.Put(key, val)
}

// Delete removes a key — allowed only after Promote.
func (f *Follower) Delete(key []byte) error {
	f.mu.RLock()
	st, ok := f.store, f.promoted
	f.mu.RUnlock()
	if !ok {
		return ErrReadOnly
	}
	return st.Delete(key)
}

// Promote converts the follower into a primary-capable store: the tail
// loop stops, the read-only gate opens, and the underlying store — a
// normal kvstore, writable all along — is returned for full use (e.g.
// to mount a provider on it). Promotion is DURABLE before it is
// visible: a PROMOTED marker is fsynced into the state directory first,
// so a restarted daemon that still carries -replica-of cannot resync
// over the writes accepted after promotion — Open refuses with
// ErrPromoted. If the marker cannot be made durable, Promote returns the
// error and the follower stays read-only and tailing. Promoting twice is
// a no-op.
func (f *Follower) Promote() (*kvstore.Store, error) {
	f.promoteMu.Lock()
	defer f.promoteMu.Unlock()
	f.mu.RLock()
	st, promoted := f.store, f.promoted
	f.mu.RUnlock()
	if promoted {
		return st, nil
	}
	if f.opts.Dir != "" {
		if err := markPromoted(f.opts.Dir); err != nil {
			return nil, fmt.Errorf("replica: write promotion marker: %w", err)
		}
	}
	f.stopLoop()
	f.mu.Lock()
	f.promoted = true
	f.status.State = "promoted"
	st, gen := f.store, f.genName
	f.mu.Unlock()
	if f.opts.Dir != "" {
		os.Remove(filepath.Join(f.opts.Dir, gen, cursorFile))
	}
	f.logf("replica: promoted; store now writable")
	return st, nil
}

// markPromoted creates the PROMOTED marker and fsyncs it and its
// directory entry. A marker it created but could not make durable is
// removed again; anything already at that path is left alone.
func markPromoted(dir string) error {
	path := filepath.Join(dir, promotedMarker)
	mf, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = mf.Sync()
	if cerr := mf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}
