package linkage

import (
	"testing"
	"time"

	"p2drm/internal/core"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/provider"
	"p2drm/internal/workload"
)

func newSystem(t *testing.T, disableBlinding bool) *core.System {
	t.Helper()
	s, err := core.NewSystem(core.Options{
		Group:           schnorr.Group768(),
		RSABits:         1024,
		DenomKeyBits:    1024,
		Clock:           func() time.Time { return time.Date(2004, 9, 1, 0, 0, 0, 0, time.UTC) },
		DisableBlinding: disableBlinding,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runTrace(t *testing.T, disableBlinding bool, reuse int, transferFrac float64) (*core.System, *workload.Result) {
	t.Helper()
	s := newSystem(t, disableBlinding)
	cfg := workload.Config{
		Users:                 4,
		Contents:              3,
		PriceCredits:          1,
		Purchases:             20,
		TransferFraction:      transferFrac,
		PurchasesPerPseudonym: reuse,
		Seed:                  42,
	}
	if err := workload.Populate(s, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

func TestFreshPseudonymsResistLinkage(t *testing.T) {
	s, res := runTrace(t, false, 1, 0)
	c := Attack(res.Events, s.Provider.DenomPublic)
	m := Evaluate(res.Events, c, res.Truth)
	if m.Pairs == 0 {
		t.Fatal("trace produced no same-user pairs; test is vacuous")
	}
	if m.Recall > 0.05 {
		t.Errorf("recall = %.3f with fresh pseudonyms; expected ≈0", m.Recall)
	}
}

func TestPseudonymReuseIncreasesLinkage(t *testing.T) {
	recalls := make(map[int]float64)
	for _, reuse := range []int{1, 4, 1000} {
		s, res := runTrace(t, false, reuse, 0)
		c := Attack(res.Events, s.Provider.DenomPublic)
		m := Evaluate(res.Events, c, res.Truth)
		recalls[reuse] = m.Recall
	}
	if !(recalls[1] < recalls[4] && recalls[4] < recalls[1000]) {
		t.Errorf("recall not monotone in reuse: %v", recalls)
	}
	// Total reuse (one pseudonym forever) is fully linkable.
	if recalls[1000] < 0.99 {
		t.Errorf("single-pseudonym recall = %.3f, want ≈1", recalls[1000])
	}
}

func TestAttackPrecisionIsHigh(t *testing.T) {
	// The attack's links (pseudonym reuse) are ground-truth correct, so
	// precision should be 1 regardless of recall.
	s, res := runTrace(t, false, 4, 0.3)
	c := Attack(res.Events, s.Provider.DenomPublic)
	m := Evaluate(res.Events, c, res.Truth)
	if m.Precision < 0.999 {
		t.Errorf("precision = %.3f; pseudonym links should never be wrong", m.Precision)
	}
}

func TestBlindingBlocksTransferLinkage(t *testing.T) {
	// With blinding: exchange and redeem stay unlinked. Recall over
	// transfer pairs comes only from pseudonym reuse (none at reuse=1).
	s, res := runTrace(t, false, 1, 0.5)
	c := Attack(res.Events, s.Provider.DenomPublic)
	m := Evaluate(res.Events, c, res.Truth)
	if m.Recall > 0.05 {
		t.Errorf("recall = %.3f with blinding; transfers leaked", m.Recall)
	}
}

func TestAblationNoBlindingLinksTransfers(t *testing.T) {
	// Without blinding the hash rule links every exchange to its redeem.
	s, res := runTrace(t, true, 1, 0.5)
	c := Attack(res.Events, s.Provider.DenomPublic)

	// Count exchange→redeem links the attack found.
	var exchanges, linked int
	var redeems []provider.Event
	for _, e := range res.Events {
		if e.Type == provider.EvRedeem {
			redeems = append(redeems, e)
		}
	}
	for _, e := range res.Events {
		if e.Type != provider.EvExchange {
			continue
		}
		exchanges++
		for _, r := range redeems {
			if c.SameCluster(e.Seq, r.Seq) {
				linked++
				break
			}
		}
	}
	if exchanges == 0 {
		t.Fatal("no transfers in trace; test vacuous")
	}
	if linked != exchanges {
		t.Errorf("linked %d of %d exchanges without blinding; want all", linked, exchanges)
	}
}

func TestAnonymitySets(t *testing.T) {
	_, res := runTrace(t, false, 1, 0.5)
	sizes := AnonymitySetSizes(res.Events)
	if len(sizes) == 0 {
		t.Fatal("no redeems")
	}
	for i, s := range sizes {
		if s < 1 {
			t.Errorf("anonymity set %d = %d", i, s)
		}
	}
	if MeanEntropy(sizes) < 0 {
		t.Error("negative entropy")
	}
	if MeanEntropy(nil) != 0 {
		t.Error("empty entropy not zero")
	}
}

func TestClusteringPrimitives(t *testing.T) {
	c := newClustering()
	c.union(1, 2)
	c.union(2, 3)
	if !c.SameCluster(1, 3) {
		t.Error("transitive union failed")
	}
	if c.SameCluster(1, 4) {
		t.Error("disjoint elements linked")
	}
	groups := c.Clusters()
	var sizes []int
	for _, g := range groups {
		sizes = append(sizes, len(g))
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 4 {
		t.Errorf("clusters cover %d elements, want 4", total)
	}
}

func TestEvaluateEmptyTruth(t *testing.T) {
	s, res := runTrace(t, false, 1, 0)
	c := Attack(res.Events, s.Provider.DenomPublic)
	m := Evaluate(res.Events, c, linkage(nil))
	if m.Pairs != 0 || m.Recall != 0 {
		t.Errorf("metrics over empty truth = %+v", m)
	}
}

// linkage builds a Truth from a nil-able map (helper for readability).
func linkage(m map[int]string) Truth { return Truth(m) }
