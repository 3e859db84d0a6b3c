// Package payment implements the anonymous payment channel the 2004 paper
// assumes: Chaum-style blind-signed cash.
//
// The bank knows WHO withdraws (it debits an account) but the coins it
// signs are blinded, so when a content provider later deposits a coin the
// bank cannot tell which withdrawal produced it. Combined with pseudonymous
// purchase, the provider learns neither identity nor payment trail.
//
// Coins are single-denomination ("1 credit") bearer tokens; prices are
// integer credit amounts. Double spending is prevented by a durable
// spent-serial ledger at the bank.
//
// # Withdrawal
//
// A withdrawal is a list of blinded coins against one account
// (WithdrawList; Withdraw and WithdrawCoins are its one-coin and
// in-process callers) and it is all or nothing: every reason to refuse —
// the requester blinded under a key that is not the bank's, a malformed
// blinded value, too small a balance — is found before the debit, the
// debit of n is one update under the account's shard lock, and a signing
// failure after it refunds all n and releases no signature. The bank
// therefore never signs more coins than it debits, and no caller loses
// credits to a list that did not come back whole. The order of a list
// tells the bank nothing: RSA blinding is perfectly hiding, so each
// blinded value is uniform whatever coin it hides.
//
// # Concurrency model
//
// The bank serves every deposit on the purchase path, so its hot state is
// split so that no operation holds a global lock and no lock is held
// across crypto or I/O:
//
//   - Balances live in N hash shards (FNV-1a over the account id), each
//     with its own mutex. Withdraw and Deposit on different accounts in
//     different shards never contend; the RSA blind signatures of a
//     withdrawal run with NO lock held (debit first, refund on signing
//     failure).
//   - The spent-serial ledger is gated by kvstore.PutIfAbsent — a
//     lock-free-from-the-bank's-view CAS — so two concurrent deposits of
//     one coin see exactly one winner, with no bank lock around the
//     ledger write.
//
// Crash ordering: Deposit marks the serial spent in the durable ledger
// BEFORE crediting the in-memory balance, so a crash between the two can
// at worst lose the payee a credit, never mint one. With the ledger store
// opened in kvstore group-commit (or fsync-per-write) mode, "Deposit
// returned nil" implies the spent mark is on stable storage, and
// "Deposit returned ErrDoubleSpend" that the mark it collided with is.
//
// Durability contract under a commit set: DepositCtx on a context from
// kvstore.BeginCommit appends the spent mark (or, refused, notes the one
// it lost to) and returns without waiting; the caller then owes the wait.
// Payment before goods: a payee must settle it — Commit.Barrier — before
// it appends anything that hands over what the coins paid for, so no
// crash can leave the goods recorded and the coins spendable again, and
// before it tells anyone a coin was double-spent.
//
// Lock order is trivial: no code path holds two shard locks at once, and
// the kvstore synchronizes internally.
package payment

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/kvstore"
)

// CoinSerialLen is the coin serial size.
const CoinSerialLen = 32

// Coin is a bearer credit: a user-chosen serial plus the bank's
// (blind-issued) signature over it.
type Coin struct {
	Serial [CoinSerialLen]byte
	Sig    []byte
}

// coinSigningBytes is the message the bank signs.
func coinSigningBytes(serial [CoinSerialLen]byte) []byte {
	return append([]byte("p2drm/coin/v1"), serial[:]...)
}

// VerifyCoin checks a coin's signature under the bank's coin key.
func VerifyCoin(bankPub *rsa.PublicKey, c *Coin) error {
	if c == nil {
		return errors.New("payment: nil coin")
	}
	if c.Serial == [CoinSerialLen]byte{} {
		return errors.New("payment: zero coin serial")
	}
	if err := rsablind.Verify(bankPub, coinSigningBytes(c.Serial), c.Sig); err != nil {
		return fmt.Errorf("payment: coin signature: %w", err)
	}
	return nil
}

// CoinRequest is the user-side state of one withdrawal: a fresh serial,
// its blinded form for the bank, and the unblinding state.
type CoinRequest struct {
	serial  [CoinSerialLen]byte
	Blinded []byte
	state   *rsablind.State
}

// NewCoinRequest prepares a withdrawal against the bank's coin key.
func NewCoinRequest(bankPub *rsa.PublicKey, random io.Reader) (*CoinRequest, error) {
	var serial [CoinSerialLen]byte
	if _, err := io.ReadFull(random, serial[:]); err != nil {
		return nil, fmt.Errorf("payment: serial: %w", err)
	}
	blinded, st, err := rsablind.Blind(bankPub, coinSigningBytes(serial), random)
	if err != nil {
		return nil, err
	}
	return &CoinRequest{serial: serial, Blinded: blinded, state: st}, nil
}

// Finish unblinds the bank's response into a spendable coin.
func (r *CoinRequest) Finish(bankPub *rsa.PublicKey, blindSig []byte) (*Coin, error) {
	sig, err := rsablind.Unblind(bankPub, r.state, blindSig)
	if err != nil {
		return nil, err
	}
	return &Coin{Serial: r.serial, Sig: sig}, nil
}

// NewCoinRequests prepares n withdrawals and lists their blinded forms in
// the same order, ready for Bank.WithdrawList.
func NewCoinRequests(bankPub *rsa.PublicKey, n int, random io.Reader) ([]*CoinRequest, [][]byte, error) {
	reqs := make([]*CoinRequest, n)
	blinded := make([][]byte, n)
	for i := range reqs {
		req, err := NewCoinRequest(bankPub, random)
		if err != nil {
			return nil, nil, err
		}
		reqs[i], blinded[i] = req, req.Blinded
	}
	return reqs, blinded, nil
}

// FinishCoins unblinds the bank's answer to a list withdrawal, one
// signature per request in request order. A bank that answers any other
// number of signatures, or one that does not verify, yields an error and
// no coins.
func FinishCoins(bankPub *rsa.PublicKey, reqs []*CoinRequest, blindSigs [][]byte) ([]*Coin, error) {
	if len(blindSigs) != len(reqs) {
		return nil, fmt.Errorf("payment: bank answered %d signatures for %d coin requests", len(blindSigs), len(reqs))
	}
	coins := make([]*Coin, len(reqs))
	for i, req := range reqs {
		coin, err := req.Finish(bankPub, blindSigs[i])
		if err != nil {
			return nil, fmt.Errorf("payment: coin %d: %w", i, err)
		}
		coins[i] = coin
	}
	return coins, nil
}

// DefaultBankShards is the balance-shard count used by NewBank.
const DefaultBankShards = 16

// Bank issues coins and settles deposits.
type Bank struct {
	signer *rsablind.Signer
	spent  *kvstore.Store
	shards []*accountShard
	// withdrawn counts coins signed by successful withdrawals.
	withdrawn atomic.Int64
}

// accountShard is one independently locked slice of the balance map.
type accountShard struct {
	mu       sync.Mutex
	balances map[string]int64
}

// ErrInsufficientFunds is returned when a withdrawal exceeds the balance.
var ErrInsufficientFunds = errors.New("payment: insufficient funds")

// ErrDoubleSpend is returned when a deposited coin was already spent.
var ErrDoubleSpend = errors.New("payment: coin already spent")

// NewBank creates a bank around a dedicated coin-signing key and a durable
// spent-coin ledger, with DefaultBankShards balance shards.
func NewBank(key *rsa.PrivateKey, spent *kvstore.Store) (*Bank, error) {
	return NewBankSharded(key, spent, DefaultBankShards)
}

// NewBankSharded creates a bank with an explicit balance-shard count
// (minimum 1). More shards reduce lock contention across accounts; the
// double-spend ledger is shard-independent.
func NewBankSharded(key *rsa.PrivateKey, spent *kvstore.Store, shards int) (*Bank, error) {
	signer, err := rsablind.NewSigner(key)
	if err != nil {
		return nil, err
	}
	if spent == nil {
		return nil, errors.New("payment: nil spent ledger")
	}
	if shards < 1 {
		shards = 1
	}
	b := &Bank{signer: signer, spent: spent, shards: make([]*accountShard, shards)}
	for i := range b.shards {
		b.shards[i] = &accountShard{balances: make(map[string]int64)}
	}
	return b, nil
}

// Shards reports the balance-shard count.
func (b *Bank) Shards() int { return len(b.shards) }

// shard maps an account id to its balance shard.
func (b *Bank) shard(accountID string) *accountShard {
	h := fnv.New32a()
	h.Write([]byte(accountID))
	return b.shards[h.Sum32()%uint32(len(b.shards))]
}

// CoinPub returns the bank's coin verification key.
func (b *Bank) CoinPub() *rsa.PublicKey { return b.signer.Public() }

// CreateAccount opens an account with an initial balance.
func (b *Bank) CreateAccount(id string, balance int64) error {
	if id == "" {
		return errors.New("payment: empty account id")
	}
	if balance < 0 {
		return errors.New("payment: negative initial balance")
	}
	sh := b.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, exists := sh.balances[id]; exists {
		return fmt.Errorf("payment: account %q already exists", id)
	}
	sh.balances[id] = balance
	return nil
}

// Balance reports an account balance.
func (b *Bank) Balance(id string) (int64, error) {
	sh := b.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	bal, ok := sh.balances[id]
	if !ok {
		return 0, fmt.Errorf("payment: unknown account %q", id)
	}
	return bal, nil
}

// TotalBalance sums every account balance. Shards are read one at a
// time, so under concurrent traffic the figure is a consistent total
// only at quiescence (which is when the conservation tests call it).
func (b *Bank) TotalBalance() int64 {
	var total int64
	for _, sh := range b.shards {
		sh.mu.Lock()
		for _, bal := range sh.balances {
			total += bal
		}
		sh.mu.Unlock()
	}
	return total
}

// Withdraw is WithdrawList for one coin requested under the bank's own
// key: what an in-process caller, holding CoinPub itself, has.
func (b *Bank) Withdraw(accountID string, blinded []byte) ([]byte, error) {
	sigs, err := b.WithdrawList(accountID, b.signer.KeyID(), [][]byte{blinded})
	if err != nil {
		return nil, err
	}
	return sigs[0], nil
}

// WithdrawList debits len(blinded) credits from the account and
// blind-signs every presented blinded coin, signatures in request order.
// The bank never sees a coin serial. It is all or nothing: a stale keyID
// (rsablind.ErrStaleKey — the requester blinded under a key that is not
// the bank's), an empty list, a malformed blinded value, an unknown
// account or a balance below the list's length is refused before the
// debit, and nothing is signed; the debit is one balance update under the
// shard lock; the signatures run with no lock held on at most GOMAXPROCS
// goroutines, and should one fail the whole debit is refunded and no
// signature leaves the bank. So the bank never signs more coins than it
// debits, and a caller never loses credits to a list that failed.
func (b *Bank) WithdrawList(accountID, keyID string, blinded [][]byte) ([][]byte, error) {
	if err := b.signer.CheckKeyID(keyID); err != nil {
		return nil, err
	}
	n := int64(len(blinded))
	if n == 0 {
		return nil, errors.New("payment: empty withdrawal")
	}
	for i, bl := range blinded {
		if err := b.signer.CheckBlinded(bl); err != nil {
			return nil, fmt.Errorf("payment: blinded coin %d: %w", i, err)
		}
	}
	sh := b.shard(accountID)
	sh.mu.Lock()
	bal, ok := sh.balances[accountID]
	if ok && bal >= n {
		sh.balances[accountID] = bal - n
	}
	sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("payment: unknown account %q", accountID)
	}
	if bal < n {
		return nil, ErrInsufficientFunds
	}
	sigs, err := b.signAll(blinded)
	if err != nil {
		// Accounts are never deleted, so the refund cannot miss.
		sh.mu.Lock()
		sh.balances[accountID] += n
		sh.mu.Unlock()
		return nil, err
	}
	b.withdrawn.Add(n)
	return sigs, nil
}

// signAll blind-signs every value, in order, on at most GOMAXPROCS
// goroutines; the first failure is the result and no signature is.
func (b *Bank) signAll(blinded [][]byte) ([][]byte, error) {
	sigs := make([][]byte, len(blinded))
	errs := make([]error, len(blinded))
	workers := min(runtime.GOMAXPROCS(0), len(blinded))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	sign := func() {
		defer wg.Done()
		for i := int(next.Add(1)) - 1; i < len(blinded); i = int(next.Add(1)) - 1 {
			sigs[i], errs[i] = b.signer.SignBlinded(blinded[i])
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go sign()
	}
	sign() // the caller is the first worker: a one-coin list starts no goroutine
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sigs, nil
}

// CoinsWithdrawn counts the coins signed by successful withdrawals.
func (b *Bank) CoinsWithdrawn() int64 { return b.withdrawn.Load() }

// RSAPrivateOps counts the coin key's private-key operations: one per
// blind signature attempted.
func (b *Bank) RSAPrivateOps() uint64 { return b.signer.PrivateOps() }

// WithdrawCoins mints n coins in process: blind n requests, withdraw them
// as one list, unblind. All n coins or none and the account untouched.
func (b *Bank) WithdrawCoins(accountID string, n int) ([]*Coin, error) {
	if n <= 0 {
		return nil, nil
	}
	reqs, blinded, err := NewCoinRequests(b.CoinPub(), n, rand.Reader)
	if err != nil {
		return nil, err
	}
	sigs, err := b.WithdrawList(accountID, b.signer.KeyID(), blinded)
	if err != nil {
		return nil, err
	}
	return FinishCoins(b.CoinPub(), reqs, sigs)
}

// Deposit verifies a coin, enforces single spending, and credits the
// payee account. The double-spend mark and the credit are logically one
// transaction; the spent mark is written (durably, per the ledger's sync
// policy) first, so a crash can at worst lose the payee a credit, never
// mint one. The ledger write is an atomic PutIfAbsent: of any number of
// concurrent deposits of one coin, exactly one succeeds — there is no
// check-then-act window.
func (b *Bank) Deposit(payeeAccount string, c *Coin) error {
	return b.DepositCtx(context.Background(), payeeAccount, c)
}

// DepositCtx is Deposit with a caller context: a traced request records
// the ledger's group-commit wait as a span, and a request with a commit
// set takes that wait over (see the package comment for what it owes).
func (b *Bank) DepositCtx(ctx context.Context, payeeAccount string, c *Coin) error {
	if err := VerifyCoin(b.CoinPub(), c); err != nil {
		return err
	}
	// Reject unknown payees before the ledger write so a misdirected
	// deposit never burns the coin.
	sh := b.shard(payeeAccount)
	sh.mu.Lock()
	_, ok := sh.balances[payeeAccount]
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("payment: unknown account %q", payeeAccount)
	}
	key := append([]byte("spent:"), c.Serial[:]...)
	inserted, err := b.spent.PutIfAbsentCtx(ctx, key, []byte{1})
	if err != nil {
		return fmt.Errorf("payment: ledger: %w", err)
	}
	if !inserted {
		return ErrDoubleSpend
	}
	// Spent mark is on the ledger; crediting cannot race an account
	// deletion because accounts are never deleted.
	sh.mu.Lock()
	sh.balances[payeeAccount]++
	sh.mu.Unlock()
	return nil
}

// SpentCount reports how many coins have been settled.
func (b *Bank) SpentCount() int {
	n := 0
	b.spent.PrefixScan([]byte("spent:"), func(k, v []byte) bool { n++; return true })
	return n
}
