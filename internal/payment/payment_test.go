package payment

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"p2drm/internal/kvstore"
)

var (
	keyOnce sync.Once
	bankKey *rsa.PrivateKey
)

func testKey(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	keyOnce.Do(func() {
		var err error
		bankKey, err = rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
	})
	return bankKey
}

func testBank(t *testing.T) *Bank {
	t.Helper()
	st, _ := kvstore.Open("")
	b, err := NewBank(testKey(t), st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWithdrawDepositCycle(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("alice", 10)
	b.CreateAccount("shop", 0)

	coins, err := b.WithdrawCoins("alice", 3)
	if err != nil {
		t.Fatal(err)
	}
	if bal, _ := b.Balance("alice"); bal != 7 {
		t.Errorf("alice balance = %d, want 7", bal)
	}
	for _, c := range coins {
		if err := VerifyCoin(b.CoinPub(), c); err != nil {
			t.Fatalf("coin invalid: %v", err)
		}
		if err := b.Deposit("shop", c); err != nil {
			t.Fatalf("deposit: %v", err)
		}
	}
	if bal, _ := b.Balance("shop"); bal != 3 {
		t.Errorf("shop balance = %d, want 3", bal)
	}
	if b.SpentCount() != 3 {
		t.Errorf("spent count = %d", b.SpentCount())
	}
}

func TestDoubleSpendRejected(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("alice", 2)
	b.CreateAccount("shop1", 0)
	b.CreateAccount("shop2", 0)
	coins, err := b.WithdrawCoins("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit("shop1", coins[0]); err != nil {
		t.Fatal(err)
	}
	if err := b.Deposit("shop2", coins[0]); err != ErrDoubleSpend {
		t.Errorf("second deposit: %v, want ErrDoubleSpend", err)
	}
	if bal, _ := b.Balance("shop2"); bal != 0 {
		t.Error("double spend credited shop2")
	}
}

func TestInsufficientFunds(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("poor", 0)
	req, _ := NewCoinRequest(b.CoinPub(), rand.Reader)
	if _, err := b.Withdraw("poor", req.Blinded); err != ErrInsufficientFunds {
		t.Errorf("err = %v, want ErrInsufficientFunds", err)
	}
	if _, err := b.Withdraw("ghost", req.Blinded); err == nil {
		t.Error("unknown account withdrew")
	}
}

func TestForgedCoinRejected(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("shop", 0)
	var forged Coin
	forged.Serial[0] = 1
	forged.Sig = make([]byte, 128)
	if err := b.Deposit("shop", &forged); err == nil {
		t.Error("forged coin deposited")
	}
	if err := VerifyCoin(b.CoinPub(), nil); err == nil {
		t.Error("nil coin verified")
	}
	var zero Coin
	zero.Sig = forged.Sig
	if err := VerifyCoin(b.CoinPub(), &zero); err == nil {
		t.Error("zero-serial coin verified")
	}
}

func TestTamperedCoinRejected(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("alice", 1)
	b.CreateAccount("shop", 0)
	coins, _ := b.WithdrawCoins("alice", 1)
	c := coins[0]
	c.Serial[3] ^= 1 // serial no longer matches the signature
	if err := b.Deposit("shop", c); err == nil {
		t.Error("serial-tampered coin deposited")
	}
}

// TestUnlinkability: the bank's view during withdrawal (blinded values)
// shares no bytes with the coins that come back at deposit time. We test
// the mechanical property that the blinded request differs from the final
// signed serial message, and that two withdrawals by one account produce
// unrelated coins.
func TestUnlinkabilityShape(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("alice", 5)
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		req, err := NewCoinRequest(b.CoinPub(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(req.Blinded)] {
			t.Fatal("blinded withdrawals collide")
		}
		seen[string(req.Blinded)] = true
		blindSig, err := b.Withdraw("alice", req.Blinded)
		if err != nil {
			t.Fatal(err)
		}
		coin, err := req.Finish(b.CoinPub(), blindSig)
		if err != nil {
			t.Fatal(err)
		}
		if string(coin.Sig) == string(blindSig) {
			t.Error("unblinded signature equals blinded signature: bank can link")
		}
	}
}

func TestAccountManagement(t *testing.T) {
	b := testBank(t)
	if err := b.CreateAccount("", 0); err == nil {
		t.Error("empty id accepted")
	}
	if err := b.CreateAccount("a", -1); err == nil {
		t.Error("negative balance accepted")
	}
	b.CreateAccount("a", 1)
	if err := b.CreateAccount("a", 1); err == nil {
		t.Error("duplicate account accepted")
	}
	if _, err := b.Balance("nobody"); err == nil {
		t.Error("unknown account balance returned")
	}
}

func TestDepositToUnknownAccount(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("alice", 1)
	coins, _ := b.WithdrawCoins("alice", 1)
	if err := b.Deposit("ghost", coins[0]); err == nil {
		t.Error("deposit to unknown account accepted")
	}
	// Failed deposit must not mark the coin spent.
	b.CreateAccount("shop", 0)
	if err := b.Deposit("shop", coins[0]); err != nil {
		t.Errorf("coin burned by failed deposit: %v", err)
	}
}

// TestConcurrentDepositSingleWinner is the regression test for the
// check-then-act race the ledger CAS closed: of N concurrent deposits of
// ONE coin, exactly one may credit, no matter which shards the payees
// land in.
func TestConcurrentDepositSingleWinner(t *testing.T) {
	b := testBank(t)
	b.CreateAccount("alice", 1)
	coins, err := b.WithdrawCoins("alice", 1)
	if err != nil {
		t.Fatal(err)
	}

	const racers = 16
	payees := make([]string, racers)
	for i := range payees {
		payees[i] = fmt.Sprintf("shop-%d", i) // spread across shards
		if err := b.CreateAccount(payees[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.Deposit(payees[i], coins[0])
		}(i)
	}
	wg.Wait()

	wins := 0
	for i, err := range errs {
		switch {
		case err == nil:
			wins++
		case errors.Is(err, ErrDoubleSpend):
		default:
			t.Errorf("racer %d: unexpected error %v", i, err)
		}
	}
	if wins != 1 {
		t.Fatalf("coin deposited %d times, want exactly 1", wins)
	}
	var credited int64
	for _, p := range payees {
		bal, err := b.Balance(p)
		if err != nil {
			t.Fatal(err)
		}
		credited += bal
	}
	if credited != 1 {
		t.Fatalf("total credited = %d, want 1", credited)
	}
	if b.SpentCount() != 1 {
		t.Fatalf("spent count = %d, want 1", b.SpentCount())
	}
}

// TestShardCountInvariance: the shard count is a pure performance knob —
// the same operation sequence yields the same balances at 1, 3 and 16
// shards.
func TestShardCountInvariance(t *testing.T) {
	for _, shards := range []int{1, 3, 16} {
		st, _ := kvstore.Open("")
		b, err := NewBankSharded(testKey(t), st, shards)
		if err != nil {
			t.Fatal(err)
		}
		if b.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", b.Shards(), shards)
		}
		b.CreateAccount("a", 5)
		b.CreateAccount("b", 0)
		coins, err := b.WithdrawCoins("a", 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range coins[:2] {
			if err := b.Deposit("b", c); err != nil {
				t.Fatal(err)
			}
		}
		if bal, _ := b.Balance("a"); bal != 2 {
			t.Errorf("shards=%d: a = %d, want 2", shards, bal)
		}
		if bal, _ := b.Balance("b"); bal != 2 {
			t.Errorf("shards=%d: b = %d, want 2", shards, bal)
		}
		if got := b.TotalBalance(); got != 4 {
			t.Errorf("shards=%d: total = %d, want 4 (1 coin in flight)", shards, got)
		}
	}
}

// TestDoubleSpendRefusalWaitsForWinnersMark: under commit sets the winner
// of the spent-ledger CAS may still be waiting for its fsync (here it
// never settles its set at all) when the loser arrives. The loser may not
// report ErrDoubleSpend before the mark it lost to is on stable storage —
// with a commit set of its own, not before its boundary.
func TestDoubleSpendRefusalWaitsForWinnersMark(t *testing.T) {
	st, err := kvstore.OpenWith(t.TempDir(), kvstore.Options{Sync: kvstore.SyncGroupCommit, CommitInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b, err := NewBank(testKey(t), st)
	if err != nil {
		t.Fatal(err)
	}
	b.CreateAccount("alice", 10)
	b.CreateAccount("shop", 0)
	coins, err := b.WithdrawCoins("alice", 2)
	if err != nil {
		t.Fatal(err)
	}
	undurable := func() int64 {
		_, off := st.DurableOffset()
		return st.Stats().LoggedBytes - off
	}

	for i, loserHasSet := range []bool{false, true} {
		winCtx, _ := kvstore.BeginCommit(context.Background())
		if err := b.DepositCtx(winCtx, "shop", coins[i]); err != nil {
			t.Fatal(err)
		}
		if undurable() == 0 {
			t.Fatal("winner's spent mark durable before anyone waited for it")
		}
		loseCtx, loser := context.Background(), kvstore.Commit{}
		if loserHasSet {
			loseCtx, loser = kvstore.BeginCommit(loseCtx)
		}
		if err := b.DepositCtx(loseCtx, "shop", coins[i]); !errors.Is(err, ErrDoubleSpend) {
			t.Fatalf("second deposit: %v, want ErrDoubleSpend", err)
		}
		if loserHasSet {
			if undurable() == 0 {
				t.Error("loser with a commit set waited inside DepositCtx")
			}
			if err := loser.End(loseCtx); err != nil {
				t.Fatal(err)
			}
		}
		if undurable() != 0 {
			t.Errorf("loserHasSet=%v: ErrDoubleSpend reported with the winner's mark not durable", loserHasSet)
		}
	}
}
