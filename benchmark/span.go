package main

// Benchmark-side tracing. Spans are recorded by the benchmark's own flow
// code around every smartcard, cryptox and httpapi.Client call, plus one
// span per HTTP round trip from a wrapping RoundTripper, kept in memory
// and written out when the run ends. Each worker owns one recorder, and
// the SDK performs its HTTP calls on the caller's goroutine, so a
// recorder needs no locking.

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

// span is one timed interval. Times are nanoseconds since the recorder's
// epoch; Parent indexes the recorder's span slice (-1 for an op root).
type span struct {
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects one worker's spans. A nil recorder records nothing,
// which is how untraced runs pay no tracing cost.
type recorder struct {
	worker int
	epoch  time.Time
	op     int
	spans  []span
	stack  []int
}

func newRecorder(worker int, epoch time.Time) *recorder {
	return &recorder{worker: worker, epoch: epoch, op: -1}
}

// beginOp opens the root span of op number op.
func (r *recorder) beginOp(op int, name string) int {
	if r == nil {
		return -1
	}
	r.op = op
	r.stack = r.stack[:0]
	return r.begin(name)
}

// begin opens a span under the innermost open span.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{
		Name: name, Worker: r.worker, Op: r.op, Parent: parent,
		Start: int64(time.Since(r.epoch)),
	})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id and everything opened inside it.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	for n := len(r.stack); n > 0; n-- {
		top := r.stack[n-1]
		r.stack = r.stack[:n-1]
		r.spans[top].End = now
		if top == id {
			return
		}
	}
}

// selfTimes returns each span's duration minus the part its direct
// children cover. Children of one parent never overlap (a recorder is
// single-threaded), so the covered part is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerOf maps a span name to the layer charged with its self time: the
// prefix before the first dot. "op" self time is what the flow spent
// outside every instrumented call — the unattributed remainder.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// budget is the per-layer split of the traced ops.
type budget struct {
	Ops int `json:"ops"`
	// SelfMS is total self time per layer, in ms, summed over all ops.
	SelfMS map[string]float64 `json:"self_ms"`
	// OpMS is the summed root-span duration (execution only, no queue
	// wait), in ms.
	OpMS float64 `json:"op_ms"`
	// Requests counts HTTP round trips.
	Requests int `json:"requests"`
}

// unattributedShare is the share of op execution time spent outside
// every instrumented call.
func (b budget) unattributedShare() float64 {
	if b.OpMS == 0 {
		return 0
	}
	return b.SelfMS["op"] / b.OpMS
}

// perOp returns a layer's self time per op in ms.
func (b budget) perOp(layer string) float64 {
	if b.Ops == 0 {
		return 0
	}
	return b.SelfMS[layer] / float64(b.Ops)
}

// add folds one recorder's spans into b.
func (b *budget) add(spans []span) {
	if b.SelfMS == nil {
		b.SelfMS = make(map[string]float64)
	}
	self := selfTimes(spans)
	for i, s := range spans {
		layer := layerOf(s.Name)
		b.SelfMS[layer] += float64(self[i]) / 1e6
		if s.Parent < 0 {
			b.Ops++
			b.OpMS += float64(s.End-s.Start) / 1e6
		}
		if layer == "http" {
			b.Requests++
		}
	}
}

// httpDurations groups HTTP round-trip durations (ms) by route key.
func httpDurations(spans []span, into map[string][]float64) {
	for _, s := range spans {
		if key, ok := strings.CutPrefix(s.Name, "http."); ok {
			into[key] = append(into[key], float64(s.End-s.Start)/1e6)
		}
	}
}

// routeKey names a route family from a request path or a /v2/metrics
// route label: the API version prefix is dropped so a /v1 → /v2 move
// keeps its key, slashes become underscores, and the bank prefix is
// dropped ("/v1/bank/withdraw" → "withdraw").
func routeKey(path string) string {
	path = strings.TrimPrefix(path, "/")
	if i := strings.IndexByte(path, '/'); i >= 0 && len(path) > 1 && path[0] == 'v' {
		path = path[i+1:]
	}
	path = strings.TrimPrefix(path, "bank/")
	return strings.ReplaceAll(path, "/", "_")
}

// spanTransport records one "http.<route key>" span per round trip. The
// span ends when the SDK closes the response body, so it covers reading
// and decoding the response as well as the wait for it.
type spanTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rec.begin("http." + routeKey(req.URL.Path))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.end(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, id: id}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	rec *recorder
	id  int
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.rec.end(b.id)
	return err
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range recs {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
