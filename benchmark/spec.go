package main

// The pinned definition of the benchmark: workloads, rates, phase split
// and the metric catalogue. BENCHMARK.json repeats the names, units,
// directions and bounds; TestCatalogueMatchesBenchmarkJSON fails when
// the two drift. Rates are constants — nothing is calibrated at run time.

import "time"

const (
	// repetitions is how many fresh primary+replica topologies one
	// untraced run boots; every end-to-end metric is the median of the
	// per-repetition values, because this shared box has multi-second
	// noise episodes (one repetition in twelve showed a stall that put its
	// p90 at 5–20 times the others') that a single repetition cannot
	// reject. Set-up costs a third of a second, so repetitions are cheap.
	repetitions = 5
	// pacedShare of a repetition's measuring time goes to the open-loop
	// paced phase, which feeds three of the four end-to-end metrics; the
	// rest goes to the closed-loop saturated phase.
	pacedShare = 0.75
	// queueSeconds bounds the paced phase's waiting queue: an arrival
	// that finds one second of arrivals already waiting is failed.
	queueSeconds = 1.0
	// batchSize is the licence count of one batch op.
	batchSize = 16
	// contentID is the one demo catalogue item every purchase buys.
	contentID = "song-blue"
)

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	// rate is the paced phase's arrival rate in ops/s.
	rate float64
	// users is the simulated user population.
	users int
	// warmup is the fixed count of warm-up ops run before measuring.
	warmup int
	// preload is how many revoked serials are written into
	// <state>/provider before the primary boots.
	preload int
	// mix is the cumulative distribution over op kinds, in percent.
	mix []mixEntry
}

type mixEntry struct {
	upTo int // cumulative percent, exclusive upper bound
	kind opKind
}

// workloads in report order. The why sentences are repeated in
// BENCHMARK.json.
var workloads = []workload{
	{
		name: "playback", rate: 40, users: 8, warmup: 8,
		why: "the paper's product: withdraw, purchase, blinded exchange, third-party redeem; every crypto, payment and commit-wait layer is on its critical path",
		mix: []mixEntry{{100, opPlayback}},
	},
	{
		name: "browse", rate: 400, users: 8, warmup: 64,
		why: "read-only catalog/content/stats/revocation-check mix, half served by the replica; bypasses crypto and the WAL so only the HTTP plane and replica reads can move it",
		mix: []mixEntry{{25, opCatalog}, {50, opContent}, {75, opStats}, {100, opRevCheck}},
	},
	{
		name: "batch", rate: 7, users: 8, warmup: 2,
		why: "16-licence bulk flow through PurchaseBatch/ExchangeBatch/RedeemBatch; same provider, crypto and kvstore layers used through batch verify, shared worker slots and coalescing commits",
		mix: []mixEntry{{100, opBatch}},
	},
	{
		name: "revstorm", rate: 100, users: 8, warmup: 32, preload: 100_000,
		why: "100k preloaded revoked serials; 75% replica revocation checks, 20% signed-filter downloads (>300 KB), 5% purchases; state size, reads beside writes and large responses",
		mix: []mixEntry{{75, opRevCheck}, {95, opFilter}, {100, opPurchase}},
	},
}

// phases splits a run's measuring time (the --seconds argument) into
// per-repetition paced and saturated durations.
func phases(seconds float64, reps int) (paced, saturated time.Duration) {
	per := seconds / float64(reps)
	paced = time.Duration(per * pacedShare * float64(time.Second))
	saturated = time.Duration(per*float64(time.Second)) - paced
	return paced, saturated
}

// metricDef is one catalogue entry.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// endToEnd metrics carry the same names on every workload. A bound is
// one and a half to two times the widest spread (quartile distance over
// median of ten runs) seen on any workload when the benchmark was
// written — 12 %, 14 % and 16 % for the last three — because a bound
// inside the box's own run-to-run spread gates on noise.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"paced_p50_ms", "ms", "lower", 0.20},
	{"paced_p90_ms", "ms", "lower", 0.25},
	{"primary_cpu_ms_per_op", "ms", "lower", 0.25},
}

// rttCalls are the SDK calls whose client-observed round trip the traced
// run reports as httpapi.rtt_<call>_ms; key is the route key the span
// transport derives from the request path.
var rttCalls = []struct{ call, key string }{
	{"challenge", "challenge"}, {"register", "register"}, {"withdraw", "withdraw"},
	{"purchase", "purchase"}, {"denomination", "denomination"}, {"exchange", "exchange"},
	{"redeem", "redeem"}, {"catalog", "catalog"}, {"content", "content"}, {"stats", "stats"},
	{"revocation_check", "revocation_contains"}, {"revocation_filter", "revocation_filter"},
	{"purchase_batch", "purchase_batch"}, {"exchange_batch", "exchange_batch"},
	{"redeem_batch", "redeem_batch"},
}

// serverRoutes are the route families whose mean server-side duration
// is scraped as httpapi.server_<route>_ms.
var serverRoutes = []string{
	"register", "withdraw", "purchase", "exchange", "redeem",
	"revocation_filter", "revocation_contains",
}

// perLayer lists every per-layer metric the traced run emits, grouped by
// the module that owns it (the name prefix).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{name: name, unit: unit, better: "higher"} }
	defs := []metricDef{
		// cryptox: probes, scrapes, span.
		lo("cryptox.schnorr_prove_us", "us"),
		lo("cryptox.schnorr_verify_us", "us"),
		lo("cryptox.schnorr_verify_batch16_us_per_item", "us"),
		lo("cryptox.expg_us", "us"),
		lo("cryptox.rsablind_sign_us", "us"),
		lo("cryptox.rsablind_blind_unblind_us", "us"),
		lo("cryptox.rsablind_verify_us", "us"),
		lo("cryptox.kem_encap_us", "us"),
		lo("cryptox.kem_decap_us", "us"),
		hi("cryptox.nonce_pool_hit_ratio", "ratio"),
		hi("cryptox.blinding_pool_hit_ratio", "ratio"),
		hi("cryptox.batch_verify_items_per_run", "count"),
		lo("cryptox.client_ms_per_op", "ms"),
		// smartcard.
		lo("smartcard.prove_us", "us"),
		lo("smartcard.client_ms_per_op", "ms"),
		// kvstore: probes, then scrapes over the provider and bank stores.
		lo("kvstore.put_durable_us", "us"),
		lo("kvstore.put_durable_conc_us", "us"),
		lo("kvstore.putifabsent_ns", "ns"),
		lo("kvstore.get_ns", "ns"),
		lo("kvstore.replay_ms", "ms"),
		lo("kvstore.commits_per_op", "count"),
		lo("kvstore.commit_wait_ms_per_op", "ms"),
		lo("kvstore.fsyncs_per_op", "count"),
		lo("kvstore.fsync_ms", "ms"),
		hi("kvstore.commits_per_fsync", "count"),
		lo("kvstore.logged_bytes_per_op", "bytes"),
		lo("kvstore.segment_rolls", "count"),
		lo("kvstore.compactions", "count"),
		// payment.
		lo("payment.withdraw_us", "us"),
		lo("payment.deposit_us", "us"),
		lo("payment.coins_per_op", "count"),
		// provider: direct calls, no HTTP.
		lo("provider.register_us", "us"),
		lo("provider.purchase_us", "us"),
		lo("provider.exchange_us", "us"),
		lo("provider.redeem_us", "us"),
		lo("provider.purchase_batch16_us_per_item", "us"),
		lo("provider.exchange_batch16_us_per_item", "us"),
		// revocation.
		lo("revocation.contains_ns", "ns"),
		lo("revocation.export_filter_us", "us"),
		lo("revocation.open_ms", "ms"),
		lo("revocation.filter_bytes", "bytes"),
		lo("revocation.visible_ms", "ms"),
	}
	for _, c := range rttCalls {
		defs = append(defs, lo("httpapi.rtt_"+c.call+"_ms", "ms"))
	}
	for _, r := range serverRoutes {
		defs = append(defs, lo("httpapi.server_"+r+"_ms", "ms"))
	}
	return append(defs,
		lo("httpapi.wire_overhead_ms", "ms"),
		lo("httpapi.requests_per_op", "count"),
		// replica.
		lo("replica.fetch_ms", "ms"),
		lo("replica.apply_ms", "ms"),
		lo("replica.records_applied_per_op", "count"),
		lo("replica.catchup_ms", "ms"),
		lo("replica.bootstrap_ms", "ms"),
		hi("replica.catchup_mb_per_s", "MB/s"),
		// daemon processes, the load generator and the box.
		lo("p2drmd.replica_cpu_ms_per_op", "ms"),
		lo("p2drmd.primary_rss_mb", "MB"),
		lo("p2drmd.replica_rss_mb", "MB"),
		lo("p2drmd.boot_ms", "ms"),
		lo("p2drmd.build_s", "s"),
		hi("loadgen.saturated_ops_per_s", "ops/s"),
		lo("loadgen.cpu_ms_per_op", "ms"),
		lo("loadgen.lateness_p99_ms", "ms"),
		lo("loadgen.paced_p99_ms", "ms"),
		lo("loadgen.unattributed_share", "ratio"),
		lo("loadgen.trace_overhead_share", "ratio"),
		lo("box.calib_ms", "ms"),
	)
}

// absent is the value reported for a per-layer metric whose source (a
// /v2/metrics family, a /proc field) is missing: a later change that
// renames a family must see a warning, not a failed run.
const absent = -1.0
