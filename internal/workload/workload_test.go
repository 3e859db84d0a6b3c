package workload

import (
	"testing"
	"time"

	"p2drm/internal/core"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/provider"
)

func newSystem(t *testing.T) *core.System {
	t.Helper()
	s, err := core.NewSystem(core.Options{
		Group:        schnorr.Group768(),
		RSABits:      1024,
		DenomKeyBits: 1024,
		Clock:        func() time.Time { return time.Date(2004, 9, 2, 0, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunProducesTrace(t *testing.T) {
	s := newSystem(t)
	cfg := Config{
		Users: 3, Contents: 2, PriceCredits: 1,
		Purchases: 10, TransferFraction: 0.4,
		PurchasesPerPseudonym: 2, Seed: 7,
	}
	if err := Populate(s, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Purchases != 10 {
		t.Errorf("purchases = %d", res.Purchases)
	}
	if len(res.Events) == 0 {
		t.Fatal("no events journaled")
	}
	// Every transaction event has a truth label.
	for _, e := range res.Events {
		if _, ok := res.Truth[e.Seq]; !ok {
			t.Errorf("event %d (%s) unlabeled", e.Seq, e.Type)
		}
	}
	// Ownership bookkeeping is consistent: total owned licenses equals
	// purchases (transfers move, not duplicate).
	total := 0
	for _, lics := range res.OwnedLicenses {
		total += len(lics)
	}
	if total != res.Purchases {
		t.Errorf("owned licenses %d != purchases %d", total, res.Purchases)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	mk := func() *Result {
		s := newSystem(t)
		cfg := Config{Users: 2, Contents: 2, PriceCredits: 1, Purchases: 6, Seed: 11}
		if err := Populate(s, cfg); err != nil {
			t.Fatal(err)
		}
		res, err := Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	// Serials differ (crypto randomness) but the structure must match.
	if a.Purchases != b.Purchases || a.Transfers != b.Transfers {
		t.Errorf("structure differs across identical seeds: %d/%d vs %d/%d",
			a.Purchases, a.Transfers, b.Purchases, b.Transfers)
	}
	typesOf := func(r *Result) []provider.EventType {
		var out []provider.EventType
		for _, e := range r.Events {
			out = append(out, e.Type)
		}
		return out
	}
	ta, tb := typesOf(a), typesOf(b)
	if len(ta) != len(tb) {
		t.Fatalf("event counts differ: %d vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("event %d type differs: %s vs %s", i, ta[i], tb[i])
		}
	}
}

func TestTransferAttribution(t *testing.T) {
	s := newSystem(t)
	cfg := Config{
		Users: 2, Contents: 1, PriceCredits: 1,
		Purchases: 5, TransferFraction: 1.0, Seed: 3,
	}
	if err := Populate(s, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers == 0 {
		t.Fatal("no transfers with fraction 1.0")
	}
	// Exchange events must be attributed to a DIFFERENT user than the
	// redeem that follows (giver vs recipient).
	events := res.Events
	for i, e := range events {
		if e.Type != provider.EvExchange {
			continue
		}
		// Find the next redeem.
		for j := i + 1; j < len(events); j++ {
			if events[j].Type == provider.EvRedeem {
				if res.Truth[e.Seq] == res.Truth[events[j].Seq] {
					t.Errorf("exchange %d and redeem %d attributed to same user %q",
						e.Seq, events[j].Seq, res.Truth[e.Seq])
				}
				break
			}
		}
	}
}

func TestDeferredRedemptions(t *testing.T) {
	s := newSystem(t)
	cfg := Config{
		Users: 3, Contents: 2, PriceCredits: 1,
		Purchases: 8, TransferFraction: 1.0,
		DeferRedemptions: true, Seed: 13,
	}
	if err := Populate(s, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers == 0 {
		t.Fatal("no transfers completed")
	}
	// All exchanges must precede all redeems in the journal.
	lastExchange, firstRedeem := -1, 1<<30
	for _, e := range res.Events {
		switch e.Type {
		case provider.EvExchange:
			if e.Seq > lastExchange {
				lastExchange = e.Seq
			}
		case provider.EvRedeem:
			if e.Seq < firstRedeem {
				firstRedeem = e.Seq
			}
		}
	}
	if lastExchange > firstRedeem {
		t.Errorf("redeem (seq %d) before final exchange (seq %d): not deferred", firstRedeem, lastExchange)
	}
	// Ownership still conserved.
	total := 0
	for _, lics := range res.OwnedLicenses {
		total += len(lics)
	}
	if total != res.Purchases {
		t.Errorf("owned %d != purchases %d", total, res.Purchases)
	}
	// Every event labeled.
	for _, e := range res.Events {
		if _, ok := res.Truth[e.Seq]; !ok {
			t.Errorf("event %d unlabeled", e.Seq)
		}
	}
}

func TestRunValidation(t *testing.T) {
	s := newSystem(t)
	if _, err := Run(s, Config{Users: 0, Contents: 1, Purchases: 1}); err == nil {
		t.Error("zero users accepted")
	}
	if _, err := Run(s, Config{Users: 1, Contents: 0, Purchases: 1}); err == nil {
		t.Error("zero contents accepted")
	}
}

func TestZipfSkewsContent(t *testing.T) {
	s := newSystem(t)
	cfg := Config{Users: 2, Contents: 10, PriceCredits: 1, Purchases: 60, Seed: 5, ZipfS: 2.0}
	if err := Populate(s, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, e := range res.Events {
		if e.Type == provider.EvPurchase {
			counts[string(e.ContentID)]++
		}
	}
	// The most popular item should dominate under s=2.0.
	if counts["content-000"] < 20 {
		t.Errorf("zipf head count = %d; distribution not skewed", counts["content-000"])
	}
}
