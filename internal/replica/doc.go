// Package replica turns one p2drm daemon into a replicated pair: a
// primary that ships its kvstore write-ahead log, and read-only
// followers that apply it, serve Get/Has/Stats and revocation lookups,
// and can be promoted when the primary dies. It is the subsystem that
// takes the provider/bank from "one daemon away from total outage" to
// independently restartable, horizontally readable deployments.
//
// # Protocol
//
// The unit of replication is the kvstore's log segment (PR 3): sealed
// segments are immutable files, the active segment grows at the tail.
// Three HTTP endpoints (internal/httpapi) expose a Source:
//
//	GET /v2/replica/manifest[?pin=1]
//	GET /v2/replica/segment/{id}?from=OFF&max=N&gen=G[&pin=ID]
//	GET /v2/replica/status
//
// The manifest lists every segment as {id, bytes, crc32, gen, sealed,
// records, live, min_key, max_key} — the engine's per-segment metadata
// doubles as the snapshot descriptor. A segment read returns raw log
// bytes plus identity headers; the follower decodes CRC-framed records
// itself (kvstore.ScanRecords), so a flipped bit anywhere in transit or
// on disk is caught before it can be applied.
//
// # Durable-offset rule
//
// The primary never streams active-segment bytes past the store's
// durable fsync horizon (kvstore.DurableOffset): a follower may only
// learn state the primary cannot lose in a crash. The horizon always
// lands on a record boundary and only advances — under group commit it
// tracks every acknowledged write, so replication lag behind
// acknowledged writes is bounded by one poll interval, not by fsync
// scheduling.
//
// # Pin/refcount contract with compaction
//
// A snapshot fetch (manifest with pin=1) takes a kvstore.Pin on every
// sealed segment it lists. CompactStep skips pinned segments, so the
// atomic-rename swap that compaction uses can never yank bytes out from
// under a streaming follower. Pins are leased: the HTTP layer expires a
// pin session that stays idle past its TTL, so a vanished follower
// cannot block compaction forever.
//
// Tail reads run unpinned and are guarded by identity instead: every
// sealed segment carries a generation counter (gen) that compaction
// bumps when it rewrites the file, and a follower's mid-segment read
// names the gen it started with. When compaction wins the race the
// primary answers 410 Gone (kvstore.ErrSegmentGone) and the follower
// falls back to a fresh snapshot — it rebuilds into a NEW store
// generation directory while the old store keeps serving reads, then
// atomically swaps (CURRENT marker file), so a resync never takes the
// replica offline and a crash mid-resync recovers to the old state.
// A random per-Open primary epoch rides on every response; an epoch
// change (primary restart) forces the same snapshot fallback.
//
// # Follower state
//
// The follower applies each primary record as one atomic kvstore batch,
// coalescing several records per batch for throughput — its own store
// is opened in group-commit mode, and the batches of one fetched chunk
// share a kvstore commit set: one durability wait per chunk, and the
// chunk's records are durable before the replication cursor {epoch,
// segment, offset, gen} is persisted (a sidecar JSON file, atomically
// renamed). A record may be readable on the follower before that wait
// returns; the primary already holds it durably. After a crash
// the cursor is never ahead of applied state; re-fetching from it
// re-applies a suffix of absolute put/delete records, which is
// idempotent. Promotion (Follower.Promote) first fsyncs a PROMOTED
// marker, then stops the tail loop and hands back the underlying store,
// open for writes. That store is the only write handle — the follower has
// no write method — and a promotion whose marker could not be made
// durable changes nothing.
//
// cmd/p2drmd runs the follower side with -replica-of=<primary-url>:
// one follower of the primary's one store, which holds the bank's spent
// ledger beside the provider's records, serving the read-only HTTP
// surface (stats, revocation contains, replication status) plus
// POST /v2/replica/promote and POST /v2/replica/resync, each answered
// when its work is done.
package replica
