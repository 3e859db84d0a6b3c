// Package workload generates the user populations and transaction traces
// the experiments run: users purchasing Zipf-popular content, reusing
// pseudonyms at a configurable rate, and transferring a fraction of their
// licenses — while recording the ground truth the linkage adversary is
// scored against.
//
// The driver attributes provider-journal events to users by diffing the
// journal around each protocol call (the runs are single-threaded), so
// the truth labels are exact.
package workload

import (
	"fmt"
	"math/rand"

	"p2drm/internal/core"
	"p2drm/internal/license"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
)

// Config parameterises a run.
type Config struct {
	Users    int
	Contents int
	// PriceCredits is the uniform item price.
	PriceCredits int64
	// Purchases is the total number of purchase transactions.
	Purchases int
	// TransferFraction of purchased licenses are transferred to another
	// random user afterwards.
	TransferFraction float64
	// PurchasesPerPseudonym is the reuse factor: 1 = fresh pseudonym per
	// purchase (full protocol), k>1 = users lazily reuse each pseudonym
	// k times (the F1 x-axis).
	PurchasesPerPseudonym int
	// DeferRedemptions separates the two transfer halves: exchanges
	// happen inline, redemptions happen afterwards in shuffled order.
	// This models bearer tokens circulating before redemption, which is
	// what gives each redemption a real anonymity set (>1 plausible
	// sources). With it false, each exchange is redeemed immediately and
	// every anonymity set is trivially 1.
	DeferRedemptions bool
	// ZipfS skews content popularity (s>1; typical 1.2).
	ZipfS float64
	// Seed makes runs reproducible.
	Seed int64
}

// Result carries everything the experiments consume.
type Result struct {
	Events []provider.Event
	// Truth maps journal sequence numbers to acting-user names; convert
	// with linkage.Truth(res.Truth) when scoring attacks.
	Truth map[int]string
	Users []*core.User
	// OwnedLicenses maps user name → live licenses after the run.
	OwnedLicenses map[string][]*license.Personalized
	// Purchases and Transfers count completed operations.
	Purchases int
	Transfers int
}

// DefaultTemplate is the rights template items are listed under.
var DefaultTemplate = rel.MustParse(`
grant play count 100;
grant transfer;
delegate allow;
`)

// Populate lists cfg.Contents items on the system's provider.
func Populate(sys *core.System, cfg Config) error {
	for i := 0; i < cfg.Contents; i++ {
		id := license.ContentID(fmt.Sprintf("content-%03d", i))
		body := []byte(fmt.Sprintf("media payload for %s", id))
		if _, err := sys.Provider.AddContent(id, string(id), cfg.PriceCredits, DefaultTemplate, body); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the trace against a core.System.
func Run(sys *core.System, cfg Config) (*Result, error) {
	if cfg.Users <= 0 || cfg.Contents <= 0 || cfg.Purchases < 0 {
		return nil, fmt.Errorf("workload: invalid config %+v", cfg)
	}
	if cfg.PurchasesPerPseudonym <= 0 {
		cfg.PurchasesPerPseudonym = 1
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Contents-1))

	res := &Result{
		Truth:         make(map[int]string),
		OwnedLicenses: make(map[string][]*license.Personalized),
	}

	// Users funded generously so payment never bounds the trace.
	funds := cfg.PriceCredits*int64(cfg.Purchases)*2 + 10
	for i := 0; i < cfg.Users; i++ {
		u, err := sys.NewUser(fmt.Sprintf("user-%03d", i), funds)
		if err != nil {
			return nil, err
		}
		res.Users = append(res.Users, u)
	}

	// attribute assigns every event the provider journaled since the last
	// snapshot to a user, with an override for specific event types.
	lastSeen := 0
	attribute := func(defaultUser string, overrides map[provider.EventType]string) {
		events := sys.Events()
		for _, e := range events[lastSeen:] {
			user := defaultUser
			if u, ok := overrides[e.Type]; ok {
				user = u
			}
			res.Truth[e.Seq] = user
		}
		lastSeen = len(events)
	}

	purchaseCount := make(map[string]int)
	pseudonymIdx := make(map[string]uint32)

	// pendingRedemption holds bearer tokens awaiting the deferred phase.
	type pending struct {
		anon *license.Anonymous
		to   *core.User
	}
	var deferred []pending

	for n := 0; n < cfg.Purchases; n++ {
		u := res.Users[rng.Intn(len(res.Users))]
		contentID := license.ContentID(fmt.Sprintf("content-%03d", zipf.Uint64()))

		// Pseudonym reuse policy.
		if purchaseCount[u.Name]%cfg.PurchasesPerPseudonym == 0 {
			idx, err := u.FreshPseudonym()
			if err != nil {
				return nil, err
			}
			pseudonymIdx[u.Name] = idx
		}
		purchaseCount[u.Name]++

		lic, err := sys.PurchaseWithPseudonym(u, contentID, pseudonymIdx[u.Name])
		if err != nil {
			return nil, fmt.Errorf("workload: purchase %d: %w", n, err)
		}
		attribute(u.Name, nil)
		res.Purchases++
		res.OwnedLicenses[u.Name] = append(res.OwnedLicenses[u.Name], lic)

		// Maybe transfer it onward.
		if cfg.TransferFraction > 0 && rng.Float64() < cfg.TransferFraction && len(res.Users) > 1 {
			to := res.Users[rng.Intn(len(res.Users))]
			for to == u {
				to = res.Users[rng.Intn(len(res.Users))]
			}
			owned := res.OwnedLicenses[u.Name]
			res.OwnedLicenses[u.Name] = owned[:len(owned)-1]
			if cfg.DeferRedemptions {
				anon, err := sys.Exchange(u, lic)
				if err != nil {
					return nil, fmt.Errorf("workload: exchange %d: %w", n, err)
				}
				attribute(u.Name, nil)
				deferred = append(deferred, pending{anon: anon, to: to})
			} else {
				newLic, err := sys.Transfer(u, lic, to)
				if err != nil {
					return nil, fmt.Errorf("workload: transfer %d: %w", n, err)
				}
				attribute(to.Name, map[provider.EventType]string{
					provider.EvExchange: u.Name, // giver performs the exchange
				})
				res.Transfers++
				res.OwnedLicenses[to.Name] = append(res.OwnedLicenses[to.Name], newLic)
			}
		}
	}

	// Deferred phase: redeem circulated tokens in shuffled order.
	rng.Shuffle(len(deferred), func(i, j int) {
		deferred[i], deferred[j] = deferred[j], deferred[i]
	})
	for i, p := range deferred {
		newLic, err := sys.Redeem(p.to, p.anon)
		if err != nil {
			return nil, fmt.Errorf("workload: deferred redeem %d: %w", i, err)
		}
		attribute(p.to.Name, nil)
		res.Transfers++
		res.OwnedLicenses[p.to.Name] = append(res.OwnedLicenses[p.to.Name], newLic)
	}
	res.Events = sys.Events()
	return res, nil
}
