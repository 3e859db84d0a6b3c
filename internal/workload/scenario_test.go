package workload

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/httpapi"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
)

// Shared test keys: RSA generation dominates harness setup, so every
// load-harness test reuses one pair.
var (
	loadKeysOnce sync.Once
	loadProvKey  *rsa.PrivateKey
	loadBankKey  *rsa.PrivateKey
)

func loadKeys(t *testing.T) (*rsa.PrivateKey, *rsa.PrivateKey) {
	t.Helper()
	loadKeysOnce.Do(func() {
		var err error
		if loadProvKey, err = rsa.GenerateKey(rand.Reader, 1024); err != nil {
			panic(err)
		}
		if loadBankKey, err = rsa.GenerateKey(rand.Reader, 1024); err != nil {
			panic(err)
		}
	})
	return loadProvKey, loadBankKey
}

// TestScenarioTraceDeterministicPerSeed mirrors TestRunDeterministicPerSeed:
// the materialized request trace is a pure function of (scenario, config,
// seed), so CI load runs are reproducible.
func TestScenarioTraceDeterministicPerSeed(t *testing.T) {
	cfg := ScenarioConfig{Seed: 11, Users: 8, Contents: 4, Ops: 400}
	for _, s := range Scenarios {
		a, b := s.Trace(cfg), s.Trace(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed produced different traces", s.Name)
		}
		other := cfg
		other.Seed = 12
		if reflect.DeepEqual(a, s.Trace(other)) {
			t.Errorf("%s: different seeds produced identical traces", s.Name)
		}
		if len(a) != cfg.Ops {
			t.Errorf("%s: trace length %d, want %d", s.Name, len(a), cfg.Ops)
		}
		sched := s.Schedule(cfg)
		if len(sched) == 0 {
			t.Errorf("%s: empty schedule", s.Name)
		}
		var total time.Duration
		for _, ph := range sched {
			if ph.RPS <= 0 || ph.Duration <= 0 {
				t.Errorf("%s: degenerate phase %+v", s.Name, ph)
			}
			total += ph.Duration
		}
		if want := cfg.withDefaults().Duration; total != want {
			t.Errorf("%s: schedule covers %v, want %v", s.Name, total, want)
		}
	}
}

func TestScenarioShapes(t *testing.T) {
	cfg := ScenarioConfig{Seed: 7, Users: 8, Contents: 8, Ops: 5000, ReadFraction: 0.9}

	mixed, _ := FindScenario("mixed")
	var writes int
	for _, op := range mixed.Trace(cfg) {
		if op.Kind == OpPurchase {
			writes++
		}
	}
	if frac := float64(writes) / float64(cfg.Ops); frac < 0.05 || frac > 0.15 {
		t.Errorf("mixed write fraction = %.3f, want ≈ 0.10", frac)
	}

	zipf, _ := FindScenario("zipf")
	counts := make(map[int]int)
	for _, op := range zipf.Trace(cfg) {
		counts[op.Content]++
	}
	if counts[0] <= counts[cfg.Contents-1]*2 {
		t.Errorf("zipf head not hot: slot0=%d tail=%d", counts[0], counts[cfg.Contents-1])
	}

	flash, _ := FindScenario("flashcrowd")
	sched := flash.Schedule(ScenarioConfig{RPS: 10, Duration: 5 * time.Second})
	if len(sched) != 3 || sched[1].RPS != 50 || sched[0].RPS != 10 {
		t.Errorf("flashcrowd schedule = %+v, want 10/50/10 step", sched)
	}

	play, _ := FindScenario("playback")
	for i, op := range play.Trace(cfg) {
		if op.User == op.Peer {
			t.Fatalf("playback op %d: buyer == peer == %d", i, op.User)
		}
	}

	if _, err := FindScenario("no-such-shape"); err == nil {
		t.Error("unknown scenario: want error")
	}
}

// newLoadHarness boots an in-process provider + bank behind httptest,
// sharing one store as in p2drmd.
// The topology lists a second client to the same server as a "replica"
// so the read-routing path is exercised without a full follower (the
// primary serves the same read surface).
func newLoadHarness(t *testing.T, contents int) (Topology, *provider.EventLog) {
	t.Helper()
	pk, bk := loadKeys(t)
	store, _ := kvstore.Open("")
	bank, err := payment.NewBank(bk, store)
	if err != nil {
		t.Fatal(err)
	}
	bank.CreateAccount("provider", 0)
	journal := &provider.EventLog{}
	prov, err := provider.New(provider.Config{
		Group: schnorr.Group768(), SignerKey: pk, DenomKeyBits: 1024,
		Store: store, Bank: bank, BankAccount: "provider",
		Clock:   func() time.Time { return time.Date(2004, 11, 1, 0, 0, 0, 0, time.UTC) },
		Journal: journal.Record,
	})
	if err != nil {
		t.Fatal(err)
	}
	template := rel.MustParse("grant play count 10; grant transfer;")
	for i := 0; i < contents; i++ {
		id := license.ContentID(fmt.Sprintf("track-%02d", i))
		if _, err := prov.AddContent(id, string(id), 1, template, []byte("blob")); err != nil {
			t.Fatal(err)
		}
	}
	// Retain EVERY request trace (threshold 0) into a quiet ring, so
	// tests can inspect exactly what an operator's trace endpoint would
	// retain under the least favourable (retain-everything) setting.
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := httptest.NewServer(httpapi.NewServer(prov).WithBank(bank).WithStore(store).
		WithTraceRetention(256, 0, quiet))
	t.Cleanup(srv.Close)
	primary := httpapi.NewClient(srv.URL, schnorr.Group768())
	reader := httpapi.NewClient(srv.URL, schnorr.Group768())
	return Topology{Primary: primary, Replicas: []*httpapi.Client{reader}}, journal
}

// TestExecutorMixedScenarioOverHTTP drives the mixed scenario against a
// live httptest daemon and requires a clean, fully-attributed report.
func TestExecutorMixedScenarioOverHTTP(t *testing.T) {
	topo, _ := newLoadHarness(t, 4)
	cfg := ScenarioConfig{Seed: 3, Users: 4, Contents: 4, RPS: 60, Duration: 1 * time.Second}
	ex, err := NewExecutor(context.Background(), topo, cfg.Users, cfg.Seed, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := FindScenario("mixed")
	res, err := ex.RunScenario(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.Errors != 0 {
		t.Fatalf("errors: %d — %+v", res.Errors, res.Ops)
	}
	for kind, sum := range res.Ops {
		if sum.Count > 0 && sum.Latency.Count == 0 {
			t.Errorf("%s: %d sent but empty histogram", kind, sum.Count)
		}
	}
}
