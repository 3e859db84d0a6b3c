package kvstore

// Incremental compaction. Sealed segments are immutable, so the
// compactor can read one without any lock, decide per record whether it
// is still live against the sharded index (brief per-key RLocks), write
// the survivors to NNNNNN.wal.tmp, fsync, and atomically rename the
// result over the original. Writers are never paused: they only ever
// touch the active segment, and the group-commit leader only fsyncs the
// active segment. A crash at any point leaves either the old or the new
// file — both replay to the same state — and *.tmp leftovers are removed
// at Open.
//
// Liveness rules (correct under full write concurrency):
//
//   - A put survives iff the index currently holds exactly its value for
//     its key. If the value differs, the newest write for that key sits
//     at a later log position and replays after this segment; dropping
//     the stale record cannot change the replayed state. If it matches,
//     keeping it is correct even if the key is concurrently rewritten —
//     the rewrite lands in the active segment and replays later.
//   - A delete (tombstone) survives iff its key is absent from the index
//     AND this is not the oldest sealed segment. If the key is present,
//     a later put replays after the tombstone anyway; if this is the
//     oldest segment, there is no older record left for the tombstone to
//     kill.

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"
)

// CompactStep compacts one sealed segment — the next one in rotation —
// and reports whether a segment was processed. It returns (false, nil)
// when the rotation cycle has completed (the next call starts a new
// cycle) or when there is nothing to compact. Steps are serialized;
// writers are never blocked.
func (s *Store) CompactStep() (bool, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	return s.compactNext()
}

// Compact seals the active segment (so its records become compactable)
// and runs one full incremental cycle over every sealed segment. Unlike
// the pre-segmentation stop-the-world rewrite, writers only ever wait for
// the one roll's file swap.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.logMu.Lock()
	if s.closed {
		s.logMu.Unlock()
		return ErrClosed
	}
	if s.file == nil {
		s.logMu.Unlock()
		return nil
	}
	if s.activeBytes > 0 {
		if err := s.roll(); err != nil {
			s.walErr = err
			s.logMu.Unlock()
			return fmt.Errorf("kvstore: compact roll: %w", err)
		}
	}
	s.compactCursor = 0
	s.logMu.Unlock()
	for {
		did, err := s.compactNext()
		if err != nil {
			return err
		}
		if !did {
			return nil
		}
	}
}

// compactNext rewrites the sealed segment under the rotation cursor.
// Caller holds compactMu (and nothing else).
//
// Two classes of segment are passed over without a rewrite:
//
//   - Pinned segments (an in-flight replication snapshot holds them): a
//     rename swap here would change the bytes a follower is mid-stream
//     on. The cursor advances and the segment is revisited after the
//     pin is released.
//   - All-live segments: the per-segment metadata proves live==records,
//     i.e. every record is the unique newest write for its key and
//     still matches the index, so a rewrite would be a byte-for-byte
//     identity. Skipping saves the full segment rescan (CompactionSkips
//     in Stats counts these).
func (s *Store) compactNext() (bool, error) {
	s.logMu.Lock()
	if s.closed {
		s.logMu.Unlock()
		return false, ErrClosed
	}
	if s.file == nil || len(s.sealed) == 0 {
		s.logMu.Unlock()
		return false, nil
	}
	if s.compactCursor >= len(s.sealed) {
		s.compactCursor = 0
		s.logMu.Unlock()
		return false, nil
	}
	idx := s.compactCursor
	seg := s.sealed[idx]
	oldest := idx == 0
	if s.pinned[seg.id] > 0 {
		s.compactCursor++
		s.logMu.Unlock()
		return true, nil
	}
	m := s.metaFor(seg.id)
	if recs := m.records.Load(); recs > 0 && m.live.Load() == recs {
		s.compactCursor++
		s.logMu.Unlock()
		s.compactSkips.Add(1)
		return true, nil
	}
	s.logMu.Unlock()

	var stepStart time.Time
	o := s.observer()
	if o != nil && o.CompactSeconds != nil {
		stepStart = time.Now()
	}
	res, err := s.rewriteSegment(seg, oldest)
	if err != nil {
		return false, err
	}
	if o != nil && o.CompactSeconds != nil {
		// Rescans that produced identical bytes still count: the step did
		// the full segment read either way.
		o.CompactSeconds(time.Since(stepStart))
	}
	if res.unchanged {
		// The rewrite dropped nothing (same bytes, same CRC): swapping
		// in a byte-identical file would only bump the gen and kick
		// every tailing replication follower into a needless snapshot
		// fallback. Tombstone-bearing segments hit this every cycle
		// (kept tombstones keep live < records forever), so without
		// this check the background compactor would churn them — and
		// their followers — indefinitely.
		s.logMu.Lock()
		s.compactCursor++
		s.logMu.Unlock()
		s.compactions.Add(1)
		return true, nil
	}

	s.logMu.Lock()
	// Only compactNext (serialized by compactMu) removes sealed entries,
	// and rolls only append, so idx still names seg.
	s.bytesLogged += res.bytes - seg.bytes
	if res.removed {
		s.sealed = append(s.sealed[:idx], s.sealed[idx+1:]...)
		// The cursor now points at the next segment already.
	} else {
		s.sealed[idx].bytes = res.bytes
		s.sealed[idx].crc = res.crc
		s.sealed[idx].gen = seg.gen + 1
		s.compactCursor++
	}
	s.logMu.Unlock()
	if res.removed {
		s.dropMeta(seg.id)
	} else {
		m.records.Store(res.records)
		s.metaMu.Lock()
		m.minKey, m.maxKey = res.minKey, res.maxKey
		s.metaMu.Unlock()
	}
	s.compactions.Add(1)
	return true, nil
}

// rewriteResult carries one rewritten segment's new shape.
type rewriteResult struct {
	bytes   int64
	crc     uint32
	records int64
	minKey  []byte
	maxKey  []byte
	removed bool
	// unchanged reports that the rewrite output was byte-identical to
	// the existing file, so no swap happened (and no gen bump).
	unchanged bool
}

// rewriteSegment streams segment seg, keeps live records per the
// package liveness rules, and swaps the result in. It returns the
// compacted shape; removed=true when nothing survived and the file was
// deleted, unchanged=true when the output was byte-identical to the
// existing file (detected by length+CRC — and a false match is still
// safe, because keeping an uncompacted segment is always correct) and
// the tmp file was discarded without a swap.
func (s *Store) rewriteSegment(seg segment, oldest bool) (rewriteResult, error) {
	id := seg.id
	path := s.segmentPath(id)
	in, err := os.Open(path)
	if err != nil {
		return rewriteResult{}, fmt.Errorf("kvstore: compact open: %w", err)
	}
	defer in.Close()

	tmpPath := path + ".tmp"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return rewriteResult{}, fmt.Errorf("kvstore: compact tmp: %w", err)
	}
	discard := func(e error) (rewriteResult, error) {
		tmp.Close()
		os.Remove(tmpPath)
		return rewriteResult{}, e
	}
	out := bufio.NewWriter(tmp)

	var res rewriteResult
	crc := crc32.NewIEEE()
	r := bufio.NewReader(in)
	for {
		rec, _, rerr := readRecord(r)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			// Sealed segments may not be torn; see replaySegment.
			return discard(fmt.Errorf("kvstore: compact: sealed segment %s corrupt: %w",
				segmentName(id), rerr))
		}
		// Batch records decompose into individual ops: their atomicity
		// mattered when they could be torn mid-write, but a compacted
		// segment is fully fsynced before it replaces the original.
		for _, o := range rec.ops {
			if !s.opLive(o, id, oldest) {
				continue
			}
			kind := kindPut
			if o.del {
				kind = kindDel
			}
			recBytes := encodeRecord(kind, encodePutBody(o.key, o.val))
			if _, werr := out.Write(recBytes); werr != nil {
				return discard(werr)
			}
			crc.Write(recBytes)
			res.bytes += int64(len(recBytes))
			res.records++
			if res.minKey == nil || bytes.Compare(o.key, res.minKey) < 0 {
				res.minKey = append([]byte(nil), o.key...)
			}
			if res.maxKey == nil || bytes.Compare(o.key, res.maxKey) > 0 {
				res.maxKey = append([]byte(nil), o.key...)
			}
		}
	}

	// Before any drop becomes durable, the index state that justified it
	// must be durable too: every record we dropped was superseded by a
	// newer write, but under group commit (or SyncOnClose) that newer
	// write may still be sitting unfsynced in the active segment. Fsync
	// it now — everything applied to the index before our scan was
	// appended before this point — or an OS crash could lose BOTH copies
	// of a previously durable, acknowledged key.
	if err := s.Sync(); err != nil {
		return discard(fmt.Errorf("kvstore: compact: sync active segment: %w", err))
	}

	if res.bytes == 0 {
		tmp.Close()
		os.Remove(tmpPath)
		if err := os.Remove(path); err != nil {
			return rewriteResult{}, fmt.Errorf("kvstore: compact remove: %w", err)
		}
		if err := syncDir(s.dir); err != nil {
			return rewriteResult{}, err
		}
		return rewriteResult{removed: true}, nil
	}
	res.crc = crc.Sum32()
	if res.bytes == seg.bytes && res.crc == seg.crc {
		tmp.Close()
		os.Remove(tmpPath)
		res.unchanged = true
		return res, nil
	}
	if err := out.Flush(); err != nil {
		return discard(err)
	}
	if err := tmp.Sync(); err != nil {
		return discard(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return rewriteResult{}, err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return rewriteResult{}, fmt.Errorf("kvstore: compact swap: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return rewriteResult{}, err
	}
	return res, nil
}

// opLive applies the liveness rules from the file comment. segID is the
// segment being compacted: with segment ids tracked in the index, a put
// is live only when the index says this very segment holds the key's
// newest record (a value-equal record in an older segment is provably
// superseded and can be dropped).
func (s *Store) opLive(o op, segID uint64, oldest bool) bool {
	sh := s.shardFor(o.key)
	sh.mu.RLock()
	cur, ok := sh.data[string(o.key)]
	sh.mu.RUnlock()
	if o.del {
		return !ok && !oldest
	}
	return ok && cur.seg == segID && bytes.Equal(cur.val, o.val)
}

// compactLoop is the background compactor: one CompactStep per tick while
// the garbage ratio warrants it. Errors are dropped — the next tick
// retries, and append-path health is what the sticky walErr reports.
func (s *Store) compactLoop() {
	defer s.compactWG.Done()
	t := time.NewTicker(s.opts.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-s.compactStop:
			return
		case <-t.C:
			if s.GarbageRatio() >= compactMinGarbage {
				s.CompactStep() //nolint:errcheck
			}
		}
	}
}
