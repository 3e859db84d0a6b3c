package workload

// HTTP executor: turns an OpSpec trace into live requests against a
// daemon topology over the SDK. Writes (register, purchase, playback)
// always hit the primary; the reads a replica can serve (stats,
// revocation checks) round-robin across replicas when any are
// configured.
//
// Each simulated user is an in-memory wallet (internal/wallet) speaking
// to the primary: it registers pseudonyms, pays with blind coins, and —
// for the playback scenario — runs the full purchase → blinded exchange
// → third-party redeem flow. The executor adds what is its own: trace
// dispatch, replica round-robin, and the per-pair ground truth the
// unlinkability property test scores linkage.Attack against. Workers
// share one wallet per user.

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"

	"p2drm/internal/cryptox/kdf"
	"p2drm/internal/httpapi"
	"p2drm/internal/license"
	"p2drm/internal/provider"
	"p2drm/internal/wallet"
)

// Topology names the daemons a load run drives.
type Topology struct {
	Primary  *httpapi.Client
	Replicas []*httpapi.Client
}

// ExecOptions tunes the executor.
type ExecOptions struct {
	// AccountPrefix namespaces this run's bank accounts; it must be
	// unique per daemon lifetime (accounts cannot be re-created).
	AccountPrefix string
	// Funds is the per-user account balance (default 1 000 000).
	Funds int64
	// Linkable disables blinding in the playback flow
	// (wallet.Config.Linkable) — the ablation control for the
	// unlinkability test: the provider sees the bare prehash at exchange
	// and can match it at redeem.
	Linkable bool
	// Admin, when set, is the client used for admin-tier setup (account
	// creation); load traffic still flows through Topology.Primary.
	Admin *httpapi.Client
}

// PlaybackPair is the ground truth for one completed playback op: the
// journal encodings of what the provider saw at exchange and at redeem.
// The unlinkability test asserts linkage.Attack cannot connect the two
// (and, with Linkable set, that it always does).
type PlaybackPair struct {
	Buyer, Peer int
	ContentID   license.ContentID
	BlindedHash string // journal encoding of the blinded blob we sent
	AnonSerial  string // journal encoding of the serial the peer redeemed
}

// Executor materializes OpSpecs into runnable Ops against a topology.
type Executor struct {
	topo    Topology
	users   []*wallet.Wallet
	catalog []httpapi.CatalogEntry
	rr      atomic.Uint64

	pairsMu sync.Mutex
	pairs   []PlaybackPair
}

// NewExecutor connects to the topology: fetches the live catalog (the
// trace's content slots map onto whatever the daemon actually serves),
// creates each user's funded bank account and wallet (its card seeded
// deterministically from seed, so reruns present the same pseudonym
// population).
func NewExecutor(ctx context.Context, topo Topology, users int, seed int64, opts ExecOptions) (*Executor, error) {
	if topo.Primary == nil {
		return nil, fmt.Errorf("workload: executor needs a primary client")
	}
	if users <= 0 {
		users = 16
	}
	if opts.Funds <= 0 {
		opts.Funds = 1_000_000
	}
	if opts.AccountPrefix == "" {
		var b [6]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, err
		}
		opts.AccountPrefix = fmt.Sprintf("load-%x", b)
	}
	admin := opts.Admin
	if admin == nil {
		admin = topo.Primary
	}
	cat, err := topo.Primary.Catalog()
	if err != nil {
		return nil, fmt.Errorf("workload: fetch catalog: %w", err)
	}
	if len(cat) == 0 {
		return nil, fmt.Errorf("workload: daemon catalog is empty; seed some content first")
	}
	e := &Executor{topo: topo, catalog: cat}
	for i := 0; i < users; i++ {
		var cardSeed [kdf.SeedLen]byte
		sum := sha256.Sum256([]byte(fmt.Sprintf("p2drm-load/%d/user/%d", seed, i)))
		copy(cardSeed[:], sum[:])
		account := fmt.Sprintf("%s-u%03d", opts.AccountPrefix, i)
		if err := admin.CreateAccount(account, opts.Funds); err != nil {
			return nil, fmt.Errorf("workload: fund user %d: %w", i, err)
		}
		u, err := wallet.Create(wallet.Config{
			Group: topo.Primary.Group, Party: topo.Primary, Linkable: opts.Linkable,
		}, account, &cardSeed)
		if err != nil {
			return nil, err
		}
		e.users = append(e.users, u)
	}
	return e, nil
}

// Pairs returns the playback ground truth collected so far.
func (e *Executor) Pairs() []PlaybackPair {
	e.pairsMu.Lock()
	defer e.pairsMu.Unlock()
	return append([]PlaybackPair(nil), e.pairs...)
}

// readClient picks the target for replica-servable reads: round-robin
// over replicas, primary when none are configured.
func (e *Executor) readClient() *httpapi.Client {
	if len(e.topo.Replicas) == 0 {
		return e.topo.Primary
	}
	return e.topo.Replicas[e.rr.Add(1)%uint64(len(e.topo.Replicas))]
}

// entryFor maps a trace content slot onto the live catalog.
func (e *Executor) entryFor(slot int) httpapi.CatalogEntry {
	if slot < 0 {
		slot = -slot
	}
	return e.catalog[slot%len(e.catalog)]
}

// purchase buys the entry under the user's current pseudonym.
func purchase(u *wallet.Wallet, entry httpapi.CatalogEntry) (*license.Personalized, error) {
	idx, err := u.Current()
	if err != nil {
		return nil, err
	}
	lic, err := u.Buy(license.ContentID(entry.ID), int(entry.PriceCredits), idx)
	if err != nil {
		return nil, fmt.Errorf("purchase: %w", err)
	}
	return lic, nil
}

// playback runs the paper's unlinkable multiparty flow end to end:
// the buyer purchases under its current pseudonym, exchanges the
// personalized license for a blind-signed anonymous one, and the peer
// redeems it under a fresh pseudonym. Ground truth for the linkage test
// is recorded on success.
func (e *Executor) playback(buyer, peer int, entry httpapi.CatalogEntry) error {
	lic, err := purchase(e.users[buyer], entry)
	if err != nil {
		return err
	}
	anon, blinded, err := e.users[buyer].Exchange(lic)
	if err != nil {
		return fmt.Errorf("exchange: %w", err)
	}
	if _, err := e.users[peer].Redeem(anon); err != nil {
		return fmt.Errorf("redeem: %w", err)
	}

	e.pairsMu.Lock()
	e.pairs = append(e.pairs, PlaybackPair{
		Buyer:       buyer,
		Peer:        peer,
		ContentID:   license.ContentID(entry.ID),
		BlindedHash: provider.BlindedHashForTest(blinded),
		AnonSerial:  anon.Serial.String(),
	})
	e.pairsMu.Unlock()
	return nil
}

// revCheckSerial derives a deterministic probe serial per user; almost
// surely unrevoked, which is the common case clients poll for.
func revCheckSerial(user int) license.Serial {
	var s license.Serial
	sum := sha256.Sum256([]byte(fmt.Sprintf("p2drm-load/revcheck/%d", user)))
	copy(s[:], sum[:])
	return s
}

// Op materializes one trace entry into a dispatchable operation.
func (e *Executor) Op(spec OpSpec) Op {
	u := e.users[spec.User%len(e.users)]
	entry := e.entryFor(spec.Content)
	var do func(ctx context.Context) error
	switch spec.Kind {
	case OpCatalog:
		do = func(context.Context) error {
			_, err := e.topo.Primary.Catalog()
			return err
		}
	case OpContent:
		do = func(context.Context) error {
			_, err := e.topo.Primary.Content(license.ContentID(entry.ID))
			return err
		}
	case OpStats:
		c := e.readClient()
		do = func(context.Context) error {
			_, err := c.Stats()
			return err
		}
	case OpRevCheck:
		c := e.readClient()
		serial := revCheckSerial(spec.User)
		do = func(context.Context) error {
			_, err := c.RevocationContains(serial)
			return err
		}
	case OpRevList:
		do = func(context.Context) error {
			_, err := e.topo.Primary.RevocationFilter()
			return err
		}
	case OpRegister:
		do = func(context.Context) error {
			_, err := u.NewPseudonym()
			return err
		}
	case OpPurchase:
		do = func(context.Context) error {
			_, err := purchase(u, entry)
			return err
		}
	case OpPlayback:
		buyer := spec.User % len(e.users)
		peer := spec.Peer % len(e.users)
		if peer == buyer {
			peer = (peer + 1) % len(e.users)
		}
		do = func(context.Context) error {
			return e.playback(buyer, peer, entry)
		}
	default:
		do = func(context.Context) error {
			return fmt.Errorf("workload: unknown op kind %q", spec.Kind)
		}
	}
	return Op{Kind: spec.Kind, Do: do}
}

// RunScenario wires a scenario's trace and schedule through RunLoad.
func (e *Executor) RunScenario(ctx context.Context, s *Scenario, cfg ScenarioConfig) (*LoadResult, error) {
	cfg = cfg.withDefaults()
	trace := s.Trace(cfg)
	lc := LoadConfig{
		Phases:      s.Schedule(cfg),
		MaxInFlight: cfg.MaxInFlight,
		SampleEvery: cfg.SampleEvery,
		OnSample:    cfg.OnSample,
	}
	return RunLoad(ctx, lc, func(i int) (Op, bool) {
		if i >= len(trace) {
			return Op{}, false
		}
		return e.Op(trace[i]), true
	})
}
