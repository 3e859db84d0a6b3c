package replica_test

// Failover conservation: a daemon keeps the bank's spent ledger and the
// provider's issued licences in one log, and a follower applies a prefix
// of it, so wherever the primary is lost the promoted replica holds no
// licence whose coins it would take again.

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/kvstore"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
	"p2drm/internal/replica"
	"p2drm/internal/smartcard"
)

var errPrimaryGone = errors.New("primary gone")

// cutFetcher is a primary that can be lost: once cut, every request
// fails, the way a dead primary's do.
type cutFetcher struct {
	replica.LocalFetcher
	cut atomic.Bool
}

func (c *cutFetcher) Manifest(pin bool) (*replica.Manifest, error) {
	if c.cut.Load() {
		return nil, errPrimaryGone
	}
	return c.LocalFetcher.Manifest(pin)
}

func (c *cutFetcher) Segment(id uint64, from, max int64, gen uint64, pin string) (*replica.Chunk, error) {
	if c.cut.Load() {
		return nil, errPrimaryGone
	}
	return c.LocalFetcher.Segment(id, from, max, gen, pin)
}

// countPrefix counts the live keys under prefix.
func countPrefix(st *kvstore.Store, prefix string) (n int) {
	st.PrefixScan([]byte(prefix), func(k, v []byte) bool { n++; return true })
	return n
}

// TestReplicaCrashPromoteConservesCoins: the primary sells a price-2
// item through purchase-only IssueBatch calls (a redemption also writes
// issued:, so none runs) on one store shared by its bank and provider,
// as p2drmd does. Followers tail it in small chunks; each loses the
// primary at a different point and is promoted, and the promoted store
// must hold at least two spent coins for every issued licence.
func TestReplicaCrashPromoteConservesCoins(t *testing.T) {
	if testing.Short() {
		t.Skip("failover suite skipped in -short mode")
	}
	store, err := kvstore.OpenWith(t.TempDir(), kvstore.Options{Sync: kvstore.SyncGroupCommit, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	keys := make([]*rsa.PrivateKey, 2)
	for i := range keys {
		if keys[i], err = rsa.GenerateKey(rand.Reader, 1024); err != nil {
			t.Fatal(err)
		}
	}
	bank, err := payment.NewBank(keys[0], store)
	if err != nil {
		t.Fatal(err)
	}
	if err := bank.CreateAccount("provider", 0); err != nil {
		t.Fatal(err)
	}
	if err := bank.CreateAccount("buyer", 1<<40); err != nil {
		t.Fatal(err)
	}
	g := schnorr.Group768()
	prov, err := provider.New(provider.Config{
		Group: g, SignerKey: keys[1], DenomKeyBits: 1024, Store: store,
		Bank: bank, BankAccount: "provider", Clock: time.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	const price = 2
	item, err := prov.AddContent("song", "Song", price, rel.MustParse("grant play;"), []byte("song-bits"))
	if err != nil {
		t.Fatal(err)
	}
	card, err := smartcard.NewRandom(g)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := card.Pseudonym(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	nonce, err := prov.Challenge(ctx)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := card.Prove(0, provider.RegisterContext(nonce))
	if err != nil {
		t.Fatal(err)
	}
	signPub, encPub := ps.SignPublic(g), ps.EncPublic(g)
	if err := prov.Register(ctx, signPub, encPub, proof, nonce); err != nil {
		t.Fatal(err)
	}

	// Two writers buy four licences per call until the rounds are done.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				reqs := make([]provider.PurchaseRequest, 4)
				for i := range reqs {
					coins, err := bank.WithdrawCoins("buyer", price)
					if err != nil {
						t.Error(err)
						return
					}
					reqs[i] = provider.PurchaseRequest{ContentID: item.ID, SignPub: signPub, EncPub: encPub, Coins: coins}
				}
				for i, res := range prov.IssueBatch(ctx, reqs) {
					if res.Err != nil {
						t.Errorf("purchase slot %d: %v", i, res.Err)
						return
					}
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	src := replica.NewSource(store)
	issuedTotal := 0
	// Cut points, in records the follower has applied: inside the
	// snapshot of the first sealed segments, then ever deeper into the
	// tail while the writers keep going.
	for _, cutAt := range []int64{5, 40, 150, 400, 900} {
		fetch := &cutFetcher{LocalFetcher: replica.LocalFetcher{Src: src}}
		f, err := replica.Open(replica.Options{
			Dir:          t.TempDir(),
			Fetch:        fetch,
			PollInterval: time.Millisecond,
			BackoffMin:   time.Millisecond,
			BackoffMax:   5 * time.Millisecond,
			MaxChunk:     300,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		deadline := time.Now().Add(20 * time.Second)
		for f.Status().Records < cutAt && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		fetch.cut.Store(true)
		promoted, err := f.Promote()
		if err != nil {
			t.Fatal(err)
		}
		spent, issued := countPrefix(promoted, "spent:"), countPrefix(promoted, "issued:")
		t.Logf("cut after %d applied records (wanted %d): %d spent, %d issued", f.Status().Records, cutAt, spent, issued)
		if spent < price*issued {
			t.Errorf("cut at %d: promoted replica holds %d issued licences but only %d spent coins", cutAt, issued, spent)
		}
		issuedTotal += issued
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if issuedTotal == 0 {
		t.Fatal("no promoted replica held an issued licence: the cuts tested nothing")
	}
}
