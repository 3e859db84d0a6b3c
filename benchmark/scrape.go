package main

// Server-side attribution from outside: before/after deltas of the
// daemons' /v2/metrics families. A family that is absent yields the
// absent value and a warning, never a failed run.

import (
	"bytes"
	"fmt"

	"p2drm/internal/httpapi"
	"p2drm/internal/obs"
)

func scrape(c *httpapi.Client) (*obs.Metrics, error) {
	raw, err := c.MetricsV2()
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", c.BaseURL, err)
	}
	return obs.ParseMetrics(bytes.NewReader(raw))
}

// delta is the change of one role's metrics between two scrapes.
type delta struct {
	from, to *obs.Metrics
	warn     func(format string, args ...any)
}

// sum returns the increase of the samples of the exact name whose labels
// satisfy keep (nil keeps all), and whether the family exists at all: a
// family none of whose samples satisfy keep sums to zero.
func (d delta) sum(name string, keep func(labels map[string]string) bool) (float64, bool) {
	total, found := 0.0, false
	for _, side := range []struct {
		m    *obs.Metrics
		sign float64
	}{{d.to, 1}, {d.from, -1}} {
		for _, s := range side.m.Samples {
			if s.Name != name {
				continue
			}
			found = true
			if keep == nil || keep(s.Labels) {
				total += side.sign * s.Value
			}
		}
	}
	if !found {
		d.warn("/v2/metrics has no %s family; metrics derived from it read %v", name, absent)
	}
	return total, found
}

// stores keeps the provider and bank stores: the two on the request path.
func stores(labels map[string]string) bool {
	return labels["store"] == "provider" || labels["store"] == "bank"
}

// route keeps successful requests of one route family.
func route(key string) func(map[string]string) bool {
	return func(labels map[string]string) bool {
		return labels["status"] == "200" && routeKey(labels["route"]) == key
	}
}

// ratio returns num/den: absent when either side's family is missing,
// zero when the families exist but nothing was observed.
func ratio(num float64, numOK bool, den float64, denOK bool) float64 {
	if !numOK || !denOK {
		return absent
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// meanMS is the mean of a *_seconds histogram family's new observations
// in ms.
func (d delta) meanMS(family string, keep func(map[string]string) bool) float64 {
	sum, ok1 := d.sum(family+"_sum", keep)
	count, ok2 := d.sum(family+"_count", keep)
	return ratio(sum*1e3, ok1, count, ok2)
}

// hitRatio is hits / (hits + misses) of a pool's counters.
func (d delta) hitRatio(prefix string) float64 {
	hits, ok1 := d.sum(prefix+"_hits_total", nil)
	misses, ok2 := d.sum(prefix+"_misses_total", nil)
	return ratio(hits, ok1, hits+misses, ok2)
}

// loadMetrics are the scrape-derived figures normalised per completed
// op; primary and replica cover the load phases only.
func loadMetrics(primary, replica delta, ops float64, out map[string]float64) {
	perOp := func(v float64, ok bool) float64 { return ratio(v, ok, ops, true) }
	commits, okC := primary.sum("p2drm_kvstore_commit_wait_seconds_count", stores)
	waited, okW := primary.sum("p2drm_kvstore_commit_wait_seconds_sum", stores)
	fsyncs, okF := primary.sum("p2drm_kvstore_fsync_duration_seconds_count", stores)
	out["kvstore.commits_per_op"] = perOp(commits, okC)
	out["kvstore.commit_wait_ms_per_op"] = perOp(waited*1e3, okW)
	out["kvstore.fsyncs_per_op"] = perOp(fsyncs, okF)
	out["kvstore.fsync_ms"] = primary.meanMS("p2drm_kvstore_fsync_duration_seconds", stores)
	out["kvstore.commits_per_fsync"] = ratio(commits, okC, fsyncs, okF)
	out["kvstore.logged_bytes_per_op"] = perOp(primary.sum("p2drm_kvstore_logged_bytes", stores))
	count := func(v float64, ok bool) float64 { return ratio(v, ok, 1, true) }
	out["kvstore.segment_rolls"] = count(primary.sum("p2drm_kvstore_segment_rolls_total", stores))
	out["kvstore.compactions"] = count(primary.sum("p2drm_kvstore_compactions_total", stores))
	out["payment.coins_per_op"] = perOp(primary.sum("p2drm_http_requests_total", route("withdraw")))
	out["replica.fetch_ms"] = replica.meanMS("p2drm_replica_fetch_duration_seconds", nil)
	out["replica.apply_ms"] = replica.meanMS("p2drm_replica_apply_duration_seconds", nil)
	out["replica.records_applied_per_op"] = perOp(replica.sum("p2drm_replica_records_applied_total", nil))
}

// runMetrics are the scrape-derived figures that need at least one
// request of every kind, so they cover the load phases and the call
// sweep that follows them.
func runMetrics(primary, replica delta, out map[string]float64) {
	out["cryptox.nonce_pool_hit_ratio"] = primary.hitRatio("p2drm_crypto_nonce_pool")
	out["cryptox.blinding_pool_hit_ratio"] = primary.hitRatio("p2drm_crypto_blinding_pool")
	items, ok1 := primary.sum("p2drm_crypto_batch_verify_items_total", nil)
	runs, ok2 := primary.sum("p2drm_crypto_batch_verify_runs_total", nil)
	out["cryptox.batch_verify_items_per_run"] = ratio(items, ok1, runs, ok2)
	for _, r := range serverRoutes {
		d := primary
		if r == "revocation_contains" {
			d = replica // revocation checks are routed to the replica
		}
		out["httpapi.server_"+r+"_ms"] = d.meanMS("p2drm_http_request_duration_seconds", route(r))
	}
}
