package kvstore

import (
	"context"
	"sync"
)

// A commit set moves the group-commit wait from every write to the
// boundary of the request that made them. The context-taking mutations
// (PutCtx, PutIfAbsentCtx, DeleteCtx, ApplyCtx, ReadBarrierCtx) look for
// one on their context: with none they block until their record is on
// stable storage, exactly as the context-free forms do; with one they
// append, apply to the index and NOTE (store, seq) instead, and whoever
// opened the set waits once per store for the highest seq noted there.
//
// The contract a set's owner takes on: nothing that depends on a noted
// record — a response, a refusal ("already spent" is a noted record too:
// the CAS loser notes the record it lost to), a write to ANOTHER store
// that must not outlive it — may leave before End or Barrier returned
// nil. Order inside one store needs no barrier: the log is append-only,
// so a durable record implies every record appended before it. Barrier
// therefore takes the store the next write goes to and waits only for
// the others; a daemon keeps all its records in one store, so its
// barriers wait on nothing and a request pays one wait, at End.

type commitSetKey struct{}

// commitSet is the shared state behind every Commit handle of one
// request. Batch workers note into it concurrently.
type commitSet struct {
	mu    sync.Mutex
	marks []commitMark
	// err is the first failed wait. Sticky: a request whose earlier
	// records may be lost must not report later ones as committed.
	err error
}

// commitMark is the highest seq noted on one store. A request touches
// one store, or two when a caller keeps them apart, so the set is a
// slice scanned linearly.
type commitMark struct {
	store *Store
	seq   int64
}

func commitSetFrom(ctx context.Context) *commitSet {
	set, _ := ctx.Value(commitSetKey{}).(*commitSet)
	return set
}

func (cs *commitSet) note(s *Store, seq int64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for i := range cs.marks {
		if cs.marks[i].store == s {
			if seq > cs.marks[i].seq {
				cs.marks[i].seq = seq
			}
			return
		}
	}
	cs.marks = append(cs.marks, commitMark{store: s, seq: seq})
}

// wait blocks until every noted record on a store other than keep is
// durable (keep nil: every noted record): one durability wait — one
// kv.commit_wait span, one CommitWaitSeconds observation — per store
// with a pending mark. Like the per-write wait it replaces, it ignores
// cancellation: the records are already in the log.
func (cs *commitSet) wait(ctx context.Context, keep *Store) error {
	cs.mu.Lock()
	var marks []commitMark
	rest := cs.marks[:0]
	for _, m := range cs.marks {
		if m.store == keep {
			rest = append(rest, m)
		} else {
			marks = append(marks, m)
		}
	}
	cs.marks = rest
	err := cs.err
	cs.mu.Unlock()
	if err != nil {
		return err
	}
	for _, m := range marks {
		if werr := m.store.waitDurableCtx(ctx, m.seq); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		cs.mu.Lock()
		if cs.err == nil {
			cs.err = err
		}
		cs.mu.Unlock()
	}
	return err
}

// Commit is one caller's handle on the commit set of its context.
type Commit struct {
	set   *commitSet
	owner bool
}

// BeginCommit returns a context whose writes are deferred to a commit
// set, and the caller's handle on it. A context that already carries a
// set is returned unchanged and the handle joins that set, so of any
// nesting of callers only the outermost one waits in End.
func BeginCommit(ctx context.Context) (context.Context, Commit) {
	if set := commitSetFrom(ctx); set != nil {
		return ctx, Commit{set: set}
	}
	set := new(commitSet)
	return context.WithValue(ctx, commitSetKey{}, set), Commit{set: set, owner: true}
}

// Barrier blocks until every record noted so far on a store other than
// next is durable, whoever owns the set. It is the cross-store ordering
// point: call it between writes and a write to next that must never be
// durable without them. Marks on next itself stay for End, since next's
// log already orders them before the write to come.
func (c Commit) Barrier(ctx context.Context, next *Store) error { return c.set.wait(ctx, next) }

// End settles the handle. The outermost handle waits for every store; a
// joined one returns nil and leaves the wait to the owner. Call it on
// every path, refusals included, before acting on the outcome.
func (c Commit) End(ctx context.Context) error {
	if !c.owner {
		return nil
	}
	return c.set.wait(ctx, nil)
}

// commit settles one appended (or, for a CAS loser, observed) record
// under the store's durability policy: note it on the context's commit
// set when there is one, block on the group-commit window otherwise.
func (s *Store) commit(ctx context.Context, seq int64) error {
	if !s.durable || s.opts.Sync != SyncGroupCommit {
		return nil
	}
	if set := commitSetFrom(ctx); set != nil {
		set.note(s, seq)
		return nil
	}
	return s.waitDurableCtx(ctx, seq)
}

// ReadBarrierCtx extends the caller's durability wait over everything a
// read of this store could have returned so far. Get and Has answer from
// the index, which runs ahead of the disk by the records other requests
// have appended but not yet waited for; a caller that acts on a positive
// answer the way a CAS loser does (refusing because the key exists)
// calls this first.
func (s *Store) ReadBarrierCtx(ctx context.Context) error {
	return s.commit(ctx, s.seqNow.Load())
}
