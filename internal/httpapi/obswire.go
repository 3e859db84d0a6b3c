package httpapi

// Wiring from the storage engines' observer hooks into a server's
// metrics registry. WithStore and NewReplicaServer install the result
// with Store.SetObserver / Follower.SetObserver — keeping kvstore and
// replica free of any registry dependency while their timings land in
// the same /v2/metrics scrape as the HTTP families.

import (
	"p2drm/internal/kvstore"
	"p2drm/internal/obs"
	"p2drm/internal/replica"
)

// storeObserver returns a kvstore observer recording fsync,
// group-commit wait, batch size, segment rolls and compaction-step
// timings into reg, labeled store=storeName.
func storeObserver(reg *obs.Registry) *kvstore.Observer {
	fsync := reg.HistogramVec("p2drm_kvstore_fsync_duration_seconds",
		"WAL fsync latency.", "store").With(storeName)
	wait := reg.HistogramVec("p2drm_kvstore_commit_wait_seconds",
		"Writer wait for group-commit durability.", "store").With(storeName)
	batch := reg.HistogramVec("p2drm_kvstore_batch_ops",
		"Operations per applied batch.", "store").With(storeName)
	rolls := reg.CounterVec("p2drm_kvstore_segment_rolls_total",
		"Active-segment rolls.", "store").With(storeName)
	compact := reg.HistogramVec("p2drm_kvstore_compact_step_seconds",
		"Single-segment compaction step duration.", "store").With(storeName)
	return &kvstore.Observer{
		FsyncSeconds:      fsync.ObserveDuration,
		CommitWaitSeconds: wait.ObserveDuration,
		BatchOps:          func(n int) { batch.Observe(int64(n)) },
		SegmentRolls:      rolls.Inc,
		CompactSeconds:    compact.ObserveDuration,
	}
}

// followerObserver returns a replica observer recording chunk-fetch
// and batch-apply timings into reg, labeled store=storeName.
func followerObserver(reg *obs.Registry) *replica.Observer {
	fetch := reg.HistogramVec("p2drm_replica_fetch_duration_seconds",
		"Primary chunk fetch latency (tail and snapshot).", "store").With(storeName)
	apply := reg.HistogramVec("p2drm_replica_apply_duration_seconds",
		"Local batch-apply latency of fetched bytes.", "store").With(storeName)
	return &replica.Observer{
		FetchSeconds: fetch.ObserveDuration,
		ApplySeconds: apply.ObserveDuration,
	}
}
