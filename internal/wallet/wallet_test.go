package wallet_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"p2drm/internal/core"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/httpapi"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
	"p2drm/internal/wallet"
)

var _ wallet.Party = (*httpapi.Client)(nil)

const price = 3

// newSystem is an in-process provider and bank listing "song" at price.
func newSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Options{
		Group: schnorr.Group768(), RSABits: 1024, DenomKeyBits: 1024,
		Clock: func() time.Time { return time.Date(2004, 9, 1, 0, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rights := rel.MustParse("grant play; grant transfer;")
	if _, err := sys.Provider.AddContent("song", "Song", price, rights, []byte("bits")); err != nil {
		t.Fatal(err)
	}
	return sys
}

var errDropped = errors.New("connection reset by peer")

// faulty is a Party whose purchases fail as a network would. A purchase
// for which drop says true is never delivered; one for which lose says
// true is delivered and its answer lost. It counts the coins withdrawn.
type faulty struct {
	wallet.Party
	drop, lose func(n int) bool

	mu        sync.Mutex
	purchases int
	withdrawn int
}

func (f *faulty) WithdrawCoins(account string, n int) ([]*payment.Coin, error) {
	coins, err := f.Party.WithdrawCoins(account, n)
	f.mu.Lock()
	f.withdrawn += len(coins)
	f.mu.Unlock()
	return coins, err
}

func (f *faulty) Purchase(id license.ContentID, signPub, encPub []byte, coins []*payment.Coin) (*license.Personalized, error) {
	f.mu.Lock()
	n := f.purchases
	f.purchases++
	f.mu.Unlock()
	if f.drop != nil && f.drop(n) {
		return nil, errDropped
	}
	lic, err := f.Party.Purchase(id, signPub, encPub, coins)
	if err == nil && f.lose != nil && f.lose(n) {
		return nil, errDropped
	}
	return lic, err
}

func (f *faulty) coinsWithdrawn() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.withdrawn
}

func first(n int) bool { return n == 0 }

// newWallet opens a funded account and a wallet on it in dir ("" for
// memory) that reaches sys through f.
func newWallet(t *testing.T, sys *core.System, f *faulty, dir string, funds int64) *wallet.Wallet {
	t.Helper()
	if err := sys.Bank.CreateAccount("alice", funds); err != nil {
		t.Fatal(err)
	}
	f.Party = wallet.Local(sys.Provider, sys.Bank)
	w, err := wallet.Create(wallet.Config{Group: sys.Group, Party: f, Dir: dir}, "alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func buy(t *testing.T, w *wallet.Wallet) (*license.Personalized, error) {
	t.Helper()
	idx, err := w.NewPseudonym()
	if err != nil {
		t.Fatal(err)
	}
	return w.Buy("song", price, idx)
}

// balances checks the account's debit and the provider's revenue.
func balances(t *testing.T, sys *core.System, funds, debited, revenue int64) {
	t.Helper()
	if got, _ := sys.Bank.Balance("alice"); got != funds-debited {
		t.Errorf("alice's balance = %d, want %d", got, funds-debited)
	}
	if got, _ := sys.Bank.Balance("provider"); got != revenue {
		t.Errorf("provider revenue = %d, want %d", got, revenue)
	}
}

// TestFailedBuyKeepsItsCoins: a purchase that never reached the provider
// leaves its coins in the purse, and the next buy spends them without a
// withdrawal, so the account is debited the price once across both.
func TestFailedBuyKeepsItsCoins(t *testing.T) {
	sys := newSystem(t)
	f := &faulty{drop: first}
	w := newWallet(t, sys, f, "", 20)

	if _, err := buy(t, w); !errors.Is(err, errDropped) {
		t.Fatalf("first buy: err = %v, want the transport error", err)
	}
	if w.Purse() != price || f.coinsWithdrawn() != price {
		t.Fatalf("after the failed buy: purse %d, withdrawn %d; want %d and %d", w.Purse(), f.coinsWithdrawn(), price, price)
	}
	balances(t, sys, 20, price, 0)

	if _, err := buy(t, w); err != nil {
		t.Fatal(err)
	}
	if w.Purse() != 0 || f.coinsWithdrawn() != price {
		t.Fatalf("after the second buy: purse %d, withdrawn %d; want 0 and %d", w.Purse(), f.coinsWithdrawn(), price)
	}
	balances(t, sys, 20, price, price)
	if n := len(w.Licenses("")); n != 1 {
		t.Fatalf("wallet holds %d licenses, want 1", n)
	}
}

// TestLostAnswerCoinsLeaveThePurse: a purchase that went through but
// whose answer was lost left spent coins in the purse. The next buy is
// refused on each of them in turn, drops it and tries again, and
// succeeds within the one call, having thrown away no coin the bank
// had not taken.
func TestLostAnswerCoinsLeaveThePurse(t *testing.T) {
	sys := newSystem(t)
	f := &faulty{lose: first}
	w := newWallet(t, sys, f, "", 20)

	if _, err := buy(t, w); !errors.Is(err, errDropped) {
		t.Fatalf("first buy: err = %v, want the transport error", err)
	}
	if w.Purse() != price {
		t.Fatalf("purse = %d after a lost answer, want %d", w.Purse(), price)
	}
	if _, err := buy(t, w); err != nil {
		t.Fatalf("buy after a lost answer: %v", err)
	}
	if w.Purse() != 0 {
		t.Errorf("purse = %d, want 0", w.Purse())
	}
	if got := f.coinsWithdrawn(); got != 2*price {
		t.Errorf("withdrew %d coins for two delivered purchases, want %d", got, 2*price)
	}
	balances(t, sys, 20, 2*price, 2*price)
}

// TestPurseSurvivesReopen: a directory wallet keeps its purse, pseudonym
// counter and licenses across Close and Open.
func TestPurseSurvivesReopen(t *testing.T) {
	sys := newSystem(t)
	dir := t.TempDir()
	f := &faulty{drop: first}
	w := newWallet(t, sys, f, dir, 20)
	if _, err := buy(t, w); err == nil {
		t.Fatal("first buy succeeded through a dropped purchase")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, err := wallet.Open(wallet.Config{Group: sys.Group, Party: f, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Purse() != price || w.Account() != "alice" {
		t.Fatalf("reopened: purse %d, account %q", w.Purse(), w.Account())
	}
	lic, err := buy(t, w)
	if err != nil {
		t.Fatal(err)
	}
	if idx, _ := w.PseudonymFor(lic.Serial); idx != 1 {
		t.Errorf("reopened wallet bought under pseudonym %d, want 1 (0 was used before)", idx)
	}
	if f.coinsWithdrawn() != price || w.Purse() != 0 {
		t.Errorf("withdrawn %d, purse %d; want %d and 0", f.coinsWithdrawn(), w.Purse(), price)
	}
	if _, err := wallet.Create(wallet.Config{Group: sys.Group, Party: f, Dir: dir}, "bob", nil); err == nil {
		t.Error("Create over an existing wallet succeeded")
	}
}

// TestConcurrentBuysConserveCoins: workers sharing one wallet, with a
// third of the purchases dropped, never spend one coin twice and never
// lose one: what the account was debited is the provider's revenue plus
// the coins left in the purse.
func TestConcurrentBuysConserveCoins(t *testing.T) {
	sys := newSystem(t)
	f := &faulty{drop: func(n int) bool { return n%3 == 0 }}
	const funds = 1000
	w := newWallet(t, sys, f, "", funds)

	const workers, each = 6, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx, err := w.Current()
			if err != nil {
				errs <- err
				return
			}
			for bought := 0; bought < each; {
				if _, err := w.Buy("song", price, idx); err == nil {
					bought++
				} else if !errors.Is(err, errDropped) {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	revenue := int64(workers * each * price)
	balances(t, sys, funds, int64(f.coinsWithdrawn()), revenue)
	if int64(f.coinsWithdrawn()) != revenue+int64(w.Purse()) {
		t.Errorf("withdrew %d coins, revenue %d, purse %d", f.coinsWithdrawn(), revenue, w.Purse())
	}
	if n := len(w.Licenses("")); n != workers*each {
		t.Errorf("wallet holds %d licenses, want %d", n, workers*each)
	}
}

// TestExchangeRetiresTheLicense: an exchanged license leaves the list and
// Find, while the ledger still knows its pseudonym; a second exchange of
// it is refused by the provider.
func TestExchangeRetiresTheLicense(t *testing.T) {
	sys := newSystem(t)
	w := newWallet(t, sys, &faulty{}, "", 20)
	lic, err := buy(t, w)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := w.Find(lic.Serial.String()[:8]); err != nil || got.Serial != lic.Serial {
		t.Fatalf("Find by prefix: %v", err)
	}
	anon, blinded, err := w.Exchange(lic)
	if err != nil {
		t.Fatal(err)
	}
	if anon == nil || len(blinded) == 0 {
		t.Fatal("exchange returned no token or no blinded bytes")
	}
	if len(w.Licenses("")) != 0 {
		t.Error("exchanged license still listed")
	}
	if _, err := w.Find(lic.Serial.String()[:8]); err == nil {
		t.Error("Find returned an exchanged license")
	}
	if _, err := w.PseudonymFor(lic.Serial); err != nil {
		t.Errorf("ledger forgot the exchanged license's pseudonym: %v", err)
	}
	if _, _, err := w.Exchange(lic); !errors.Is(err, provider.ErrLicenseRevoked) {
		t.Errorf("second exchange: %v, want a revocation refusal", err)
	}
}
