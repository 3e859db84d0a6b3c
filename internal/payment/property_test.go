package payment

// Property-based tests for the sharded bank. The model checked is value
// conservation: a list withdrawal removes exactly one credit per coin it
// returns — all of the list or none of it — deposits move exactly one
// coin back into a balance, and nothing else moves money. Run under -race
// in CI (see the race targets in the Makefile) so the shard locking is
// exercised, not just the arithmetic.

import (
	crand "crypto/rand"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/kvstore"
)

// hostileLists are the list withdrawals the bank must refuse whole: each
// spoils an otherwise valid request for n coins in one way.
var hostileLists = []struct {
	name  string
	spoil func(b *Bank, keyID *string, blinded [][]byte) [][]byte
	want  error
}{
	{"empty list", func(_ *Bank, _ *string, bl [][]byte) [][]byte { return bl[:0] }, nil},
	{"stale key id", func(_ *Bank, id *string, bl [][]byte) [][]byte { *id = "0123456789abcdef"; return bl }, rsablind.ErrStaleKey},
	{"no key id", func(_ *Bank, id *string, bl [][]byte) [][]byte { *id = ""; return bl }, rsablind.ErrStaleKey},
	{"zero blinded value", func(_ *Bank, _ *string, bl [][]byte) [][]byte { bl[len(bl)/2] = []byte{0}; return bl }, rsablind.ErrBadBlindedValue},
	{"blinded value over the modulus", func(b *Bank, _ *string, bl [][]byte) [][]byte {
		bl[len(bl)-1] = append(b.CoinPub().N.Bytes(), 0)
		return bl
	}, rsablind.ErrBadBlindedValue},
}

// withdrawHostile sends every hostile variant of an n-coin list and
// reports whether each was refused with nothing debited and nothing
// signed.
func withdrawHostile(t *testing.T, b *Bank, acct string, n int) bool {
	for _, h := range hostileLists {
		_, blinded, err := NewCoinRequests(b.CoinPub(), n, crand.Reader)
		if err != nil {
			t.Log(err)
			return false
		}
		keyID := rsablind.KeyID(b.CoinPub())
		blinded = h.spoil(b, &keyID, blinded)
		total, signed := b.TotalBalance(), b.CoinsWithdrawn()
		sigs, err := b.WithdrawList(acct, keyID, blinded)
		if err == nil || sigs != nil || (h.want != nil && !errors.Is(err, h.want)) {
			t.Logf("%s: sigs %d, err %v", h.name, len(sigs), err)
			return false
		}
		if b.TotalBalance() != total || b.CoinsWithdrawn() != signed {
			t.Logf("%s: refused list moved the total %d -> %d, coins signed %d -> %d",
				h.name, total, b.TotalBalance(), signed, b.CoinsWithdrawn())
			return false
		}
	}
	return true
}

// TestQuickSequentialConservation drives random single-threaded op
// sequences against banks of random shard counts: every reachable state
// must conserve total value against a plain model.
func TestQuickSequentialConservation(t *testing.T) {
	key := testKey(t)
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(7))}
	f := func(seed int64, shardSel, nOps uint8) bool {
		st, _ := kvstore.Open("")
		shards := 1 + int(shardSel)%16
		b, err := NewBankSharded(key, st, shards)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		const accounts, initial = 5, 10
		for i := 0; i < accounts; i++ {
			if err := b.CreateAccount(fmt.Sprintf("acct-%d", i), initial); err != nil {
				return false
			}
		}
		var outstanding []*Coin // withdrawn, not yet deposited
		spent := 0
		for i := 0; i < int(nOps)+10; i++ {
			acct := fmt.Sprintf("acct-%d", r.Intn(accounts))
			switch {
			case r.Intn(8) == 0: // lists the bank must refuse whole
				if !withdrawHostile(t, b, acct, 1+r.Intn(4)) {
					return false
				}
			case r.Intn(3) != 0 || len(outstanding) == 0: // withdraw a list
				// Mostly small, sometimes more than any account holds
				// (and than one HTTP request may carry).
				n := 1 + r.Intn(4)
				if r.Intn(6) == 0 {
					n = 300
				}
				bal, _ := b.Balance(acct)
				coins, err := b.WithdrawCoins(acct, n)
				if err == ErrInsufficientFunds {
					if int64(n) <= bal || coins != nil {
						return false
					}
					continue
				}
				if err != nil || len(coins) != n {
					return false
				}
				outstanding = append(outstanding, coins...)
			default: // deposit a random outstanding coin
				j := r.Intn(len(outstanding))
				if err := b.Deposit(acct, outstanding[j]); err != nil {
					return false
				}
				outstanding = append(outstanding[:j], outstanding[j+1:]...)
				spent++
			}
			if got, want := b.TotalBalance(), int64(accounts*initial-len(outstanding)); got != want {
				t.Logf("seed %d op %d: total %d want %d (outstanding %d)", seed, i, got, want, len(outstanding))
				return false
			}
		}
		// Every outstanding coin deposits exactly once; replays fail.
		for _, c := range outstanding {
			if err := b.Deposit("acct-0", c); err != nil {
				return false
			}
			if err := b.Deposit("acct-1", c); err != ErrDoubleSpend {
				return false
			}
			spent++
		}
		return b.TotalBalance() == accounts*initial && b.SpentCount() == spent && b.CoinsWithdrawn() == int64(spent)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestConcurrentConservationAcrossShards interleaves Withdraw and
// Deposit from many goroutines over accounts spread across every shard:
// at quiescence total value is conserved, every coin settled exactly
// once, and double-spend attempts all lose.
func TestConcurrentConservationAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st, _ := kvstore.Open("")
			b, err := NewBankSharded(testKey(t), st, shards)
			if err != nil {
				t.Fatal(err)
			}
			const workers, opsPerWorker, accounts, initial = 8, 12, 8, 40
			for i := 0; i < accounts; i++ {
				if err := b.CreateAccount(fmt.Sprintf("acct-%d", i), initial); err != nil {
					t.Fatal(err)
				}
			}
			var (
				withdrawn atomic.Int64
				deposited atomic.Int64
				doubles   atomic.Int64
				coinCh    = make(chan *Coin, workers*opsPerWorker)
				spentOnce = make(chan *Coin, workers*opsPerWorker)
				wg        sync.WaitGroup
			)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < opsPerWorker; i++ {
						from := fmt.Sprintf("acct-%d", r.Intn(accounts))
						to := fmt.Sprintf("acct-%d", r.Intn(accounts))
						coins, err := b.WithdrawCoins(from, 1)
						if err == ErrInsufficientFunds {
							continue
						}
						if err != nil {
							t.Error(err)
							return
						}
						withdrawn.Add(1)
						coinCh <- coins[0]
						// Deposit someone's coin, racing a second
						// deposit of the same coin half the time.
						c := <-coinCh
						dep := func() {
							switch err := b.Deposit(to, c); {
							case err == nil:
								deposited.Add(1)
								spentOnce <- c
							case err == ErrDoubleSpend:
								doubles.Add(1)
							default:
								t.Error(err)
							}
						}
						if r.Intn(2) == 0 {
							var race sync.WaitGroup
							race.Add(2)
							go func() { defer race.Done(); dep() }()
							go func() { defer race.Done(); dep() }()
							race.Wait()
						} else {
							dep()
						}
					}
				}(w)
			}
			wg.Wait()
			close(coinCh)
			close(spentOnce)

			unspent := int64(len(coinCh))
			if got, want := b.TotalBalance(), int64(accounts*initial)-unspent; got != want {
				t.Errorf("total = %d, want %d (withdrawn %d, deposited %d, in flight %d)",
					got, want, withdrawn.Load(), deposited.Load(), unspent)
			}
			if deposited.Load()+unspent != withdrawn.Load() {
				t.Errorf("coins leaked: withdrawn %d != deposited %d + unspent %d",
					withdrawn.Load(), deposited.Load(), unspent)
			}
			if int64(b.SpentCount()) != deposited.Load() {
				t.Errorf("ledger %d entries, %d successful deposits", b.SpentCount(), deposited.Load())
			}
			// Replaying every settled coin must lose.
			for c := range spentOnce {
				if err := b.Deposit("acct-0", c); err != ErrDoubleSpend {
					t.Errorf("replayed coin: err = %v, want ErrDoubleSpend", err)
				}
			}
			t.Logf("withdrawn %d, deposited %d, raced doubles rejected %d", withdrawn.Load(), deposited.Load(), doubles.Load())
		})
	}
}

// TestConcurrentListWithdrawNeverOverdraws: 32 goroutines pull lists of
// assorted sizes from ONE account that cannot pay for all of them. Every
// list comes back whole or not at all, the coins out equal the credits
// gone, and the balance never goes below zero.
func TestConcurrentListWithdrawNeverOverdraws(t *testing.T) {
	st, _ := kvstore.Open("")
	b, err := NewBankSharded(testKey(t), st, 4)
	if err != nil {
		t.Fatal(err)
	}
	const workers, initial = 32, 100
	if err := b.CreateAccount("shared", initial); err != nil {
		t.Fatal(err)
	}
	var (
		minted  atomic.Int64
		refused atomic.Int64
		start   = make(chan struct{})
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for _, n := range []int{1 + w%7, 3, 1 + w%5} {
				coins, err := b.WithdrawCoins("shared", n)
				switch {
				case err == nil && len(coins) == n:
					minted.Add(int64(n))
				case err == ErrInsufficientFunds && coins == nil:
					refused.Add(1)
				default:
					t.Errorf("list of %d: %d coins, err %v", n, len(coins), err)
				}
				if bal, _ := b.Balance("shared"); bal < 0 {
					t.Errorf("balance %d", bal)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	bal, _ := b.Balance("shared")
	if bal < 0 || bal+minted.Load() != initial || b.CoinsWithdrawn() != minted.Load() {
		t.Errorf("balance %d + minted %d != initial %d (bank counts %d coins signed)",
			bal, minted.Load(), initial, b.CoinsWithdrawn())
	}
	if refused.Load() == 0 {
		t.Error("no list was refused: the account was never short, the test proves nothing")
	}
	t.Logf("minted %d coins, %d lists refused, %d credits left", minted.Load(), refused.Load(), bal)
}
