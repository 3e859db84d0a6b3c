// Package provider implements the P2DRM content provider: catalog,
// pseudonym registry, license issuance, the exchange/redeem pair that
// makes transfers unlinkable, and revocation publication.
//
// The provider is honest-but-curious in the threat model: it follows the
// protocol but logs everything it sees. The journal (Config.Journal) is
// therefore a first-class output — the adversary tests (package linkage,
// workload/unlink_test.go) run the published attack directly against it.
// p2drmd installs no journal, so nothing grows with its traffic.
//
// What the provider can and cannot see, by operation:
//
//	Register  sees: fresh pseudonym keys + ownership proof. Not identity.
//	Purchase  sees: pseudonym, content, blind coins. Not identity, not
//	          the payer's bank account.
//	Exchange  sees: a valid license dying + a BLINDED serial. It signs
//	          the blinded serial without learning it.
//	Redeem    sees: a fresh pseudonym + a serial it has never seen
//	          before carrying its own valid signature. Unlinkable to any
//	          exchange (blindness), impossible to replay (redeemed set).
//
// # Concurrency model
//
// The provider serves many anonymous users at once, so shared state is
// split into independently locked slices and every public-key operation
// (RSA-FDH signing and blind signing, Schnorr proof verification, the KEM
// share behind a key wrap) runs with NO provider lock held:
//
//	catMu (RWMutex)  catalog, denomination signers and both denomination
//	                 indexes. Written only by AddContent; the serving
//	                 path takes short read locks to snapshot pointers.
//	nonceMu (Mutex)  the set of consumed challenge nonces. Consumption
//	                 is an insert-under-lock, so a nonce burns exactly
//	                 once no matter how many requests race on it.
//	jmu (Mutex)      numbers journal events (seq) and calls Config.Journal
//	                 in that order; never taken when Journal is nil.
//	rev              revocation.List synchronizes internally.
//	kem              dlkem.Sender synchronizes internally (a map lookup
//	                 under its own mutex; never across an exponentiation).
//	cfg.Store        registration table, issuance ledger and the
//	                 redeemed-serial set live in the thread-safe kvstore;
//	                 PutIfAbsent is the atomic double-spend gate for
//	                 concurrent Redeem calls on the same serial.
//
// Lock ordering is a non-issue by construction: no code path holds two
// provider locks at once.
//
// # Challenge nonces
//
// Register and Exchange verify a proof of ownership bound to a nonce that
// must be fresh and single-use. The provider issues nothing per client
// for it (nonce.go): its contribution is a public beacon, one per epoch
// of nonceTTL/2 (150 s) — the epoch number and a 128-bit MAC of it under
// a key drawn at process start — identical for every caller; a nonce is
// the beacon followed by 128 random bits, drawn by the provider
// (Challenge) or by the client itself (NewNonce). consumeNonce accepts a
// well-formed nonce under this process's beacon of the current or the
// previous epoch, once: a nonce lives 2.5 to 5 minutes and dies with the
// process. The only nonce state is the consumed set — the nonces that
// were presented, by the epoch of their beacon, each epoch's set dropped
// whole two epochs later. A challenge that was handed out and never used
// occupies no memory, and there is no record of a nonce being issued for
// a later use to be joined with.
//
// # Key wraps
//
// A pseudonym is the pair (sign key, enc key) that went through Register,
// and a purchase or redemption must name that pair: a registered sign key
// beside any other enc key is ErrUnknownPseudonym. Every license is
// wrapped through ONE dlkem.Sender built with the provider (build is the
// only wrapping site and has no other way to wrap): the sender keeps one
// ephemeral exponent for the life of the process and the KEK per enc key,
// so the provider pays the encapsulation's exponentiation once per
// pseudonym — on the first license to it — and a map lookup for every
// later one. A standing pseudonym that buys all day costs one share; the
// fresh pseudonym a redemption is made to costs one, as it always did.
// Consequences a reader of a license should know: KeyWrap.KEM is the same
// group element on every license this process issues (it says "issued by
// this process", which IssuedAt and the signature say more precisely),
// nothing about it is stored, and a restart draws a new one — licenses
// issued before carry their own and keep unwrapping. The pair check above
// is also what bounds the sender's cache to keys that cost their owner an
// ownership proof and a durable registration. docs/crypto.md has the
// construction and the argument.
//
// # License signatures
//
// The provider key signs Merkle roots, not licenses: every license is
// built unsigned, the licenses one call issues to one pseudonym become the
// leaves of a tree (license.Sign), one signature covers its root, and each
// license carries that signature and its path. Purchase and Redeem are the
// one-leaf case; IssueBatch and RedeemBatch cost one private-key operation
// per pseudonym they name instead of one per license. A root never spans
// two pseudonyms, because licenses under one root are provably co-issued
// and only a shared pseudonym may say that.
// The issuance record holds the license with its path and signature, and
// Exchange admits a license by comparing it to that record, which settles
// more than verifying the signature again would. docs/crypto.md has the
// construction and what a path reveals.
//
// # Durability
//
// Each protocol step is implemented once, over a slice: IssueBatch,
// ExchangeBatch and RedeemBatch, which Purchase, Exchange and Redeem call
// with one item. Every public entry point that writes (Register and the
// three slice calls) opens a kvstore commit set on its context, so the
// writes below it — cfg.Store puts, the bank's spent marks, the revocation
// list's TryAddCtx — append and apply at once and the entry point blocks
// ONCE per store, at its end, for all of them.
// It does so on the refusal path too: ErrAlreadyRedeemed, ErrLicenseRevoked
// and the bank's ErrDoubleSpend rest on another request's record, and are
// not returned before that record is durable. No worker of a batch parks
// on an fsync.
// The entry points are still durable-on-return for every caller; a caller
// that already opened a commit set of its own takes the wait over.
//
// Order within a store is the log's: revoke-before-sign in exchange,
// burn-before-issue in redemption and payment-before-goods in purchase
// hold because the later record cannot be durable without the earlier
// one. p2drmd keeps the bank's spent marks in cfg.Store, so every entry
// point, a batch of purchases included, costs one durability wait. A bank
// on a store of its own is ordered by an explicit barrier — IssueBatch
// waits for its spent marks before appending any "issued:" record — and a
// purchase then costs two.
package provider

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"sync"
	"time"

	"p2drm/internal/cryptox/dlkem"
	"p2drm/internal/cryptox/envelope"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/rel"
	"p2drm/internal/revocation"
)

// Errors callers branch on.
var (
	ErrUnknownContent   = errors.New("provider: unknown content")
	ErrUnknownPseudonym = errors.New("provider: pseudonym not registered")
	ErrBadProof         = errors.New("provider: ownership proof invalid")
	ErrBadNonce         = errors.New("provider: unknown or expired nonce")
	ErrWrongPayment     = errors.New("provider: wrong payment amount")
	ErrLicenseRevoked   = errors.New("provider: license already revoked")
	ErrAlreadyRedeemed  = errors.New("provider: anonymous serial already redeemed")
	ErrUnknownDenom     = errors.New("provider: unknown denomination")
)

// Config configures a provider.
type Config struct {
	Group *schnorr.Group
	// SignerKey is the provider's main RSA key (license roots and
	// revocation filters). Denomination keys are generated separately.
	SignerKey *rsa.PrivateKey
	// DenomKeyBits sizes per-denomination blind-signing keys (default
	// 1024 in tests, 2048 in production configs).
	DenomKeyBits int
	Store        *kvstore.Store
	Bank         *payment.Bank
	// BankAccount is the provider's settlement account at the bank.
	BankAccount string
	Clock       func() time.Time
	// Journal receives every observation event, numbered and timestamped,
	// one call at a time in Seq order. Nil keeps no journal. It is called
	// under the lock that gives that order, so it must return promptly
	// and must not call back into the provider.
	Journal func(Event)
}

// CatalogItem describes purchasable content.
type CatalogItem struct {
	ID           license.ContentID
	Title        string
	PriceCredits int64
	Template     *rel.Rights
	// Encrypted is the envelope stream; freely distributable.
	Encrypted []byte

	contentKey []byte
	denom      license.DenominationID
}

// EventType enumerates journal entries.
type EventType string

// Journal event types.
const (
	EvRegister EventType = "register"
	EvPurchase EventType = "purchase"
	EvExchange EventType = "exchange"
	EvRedeem   EventType = "redeem"
)

// Event is one journal record: exactly the information the provider
// observes, nothing more. Linkage attacks consume this.
type Event struct {
	Seq         int
	Type        EventType
	At          time.Time
	PseudonymFP string // fingerprint of the pseudonym presented ("" if none)
	ContentID   license.ContentID
	Serial      string // personalized serial seen ("" if none)
	AnonSerial  string // anonymous serial seen in clear at redeem ("" otherwise)
	BlindedHash string // hash of the blinded blob seen at exchange
}

// Provider is the content provider.
type Provider struct {
	group  *schnorr.Group
	signer *rsablind.Signer
	cfg    Config

	// catMu guards the catalog maps; see the package comment for the
	// full locking model.
	catMu    sync.RWMutex
	catalog  map[license.ContentID]*CatalogItem
	denoms   map[license.DenominationID]*rsablind.Signer
	denomByC map[license.ContentID]license.DenominationID
	itemByD  map[license.DenominationID]*CatalogItem

	// nonceKey is the per-process MAC key behind the challenge beacon
	// (nonce.go); nonceMu guards nonces, the consumed nonces by the epoch
	// of their beacon. A nonce that was only handed out is not in it.
	nonceKey [32]byte
	nonceMu  sync.Mutex
	nonces   map[int64]map[string]struct{}

	// jmu orders journal events; see log.
	jmu sync.Mutex
	seq int

	// batchSlots is a provider-wide semaphore bounding how many batch
	// items run crypto at once, across ALL batch calls of two or more
	// items — many concurrent batches share these GOMAXPROCS slots instead
	// of each spawning its own full-width pool. A call of one item, every
	// single request, runs on its caller's goroutine and takes none.
	batchSlots chan struct{}

	// crypto counts batch proof-verification activity (see crypto.go).
	crypto cryptoCounters

	// kem wraps every license this process issues (package comment, "Key
	// wraps"): per-process like nonceKey, never stored.
	kem *dlkem.Sender

	rev *revocation.List
}

// New builds a provider.
func New(cfg Config) (*Provider, error) {
	if cfg.Group == nil || cfg.SignerKey == nil || cfg.Store == nil {
		return nil, errors.New("provider: group, signer key and store are required")
	}
	if cfg.Bank == nil || cfg.BankAccount == "" {
		return nil, errors.New("provider: bank and settlement account are required")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.DenomKeyBits == 0 {
		cfg.DenomKeyBits = 2048
	}
	signer, err := rsablind.NewSigner(cfg.SignerKey)
	if err != nil {
		return nil, err
	}
	rev, err := revocation.Open(cfg.Store, 0)
	if err != nil {
		return nil, err
	}
	var nonceKey [32]byte
	if _, err := io.ReadFull(rand.Reader, nonceKey[:]); err != nil {
		return nil, fmt.Errorf("provider: beacon key: %w", err)
	}
	kem, err := dlkem.NewSender(cfg.Group, rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("provider: kem sender: %w", err)
	}
	return &Provider{
		group:      cfg.Group,
		signer:     signer,
		cfg:        cfg,
		catalog:    make(map[license.ContentID]*CatalogItem),
		denoms:     make(map[license.DenominationID]*rsablind.Signer),
		denomByC:   make(map[license.ContentID]license.DenominationID),
		itemByD:    make(map[license.DenominationID]*CatalogItem),
		nonceKey:   nonceKey,
		nonces:     make(map[int64]map[string]struct{}),
		batchSlots: make(chan struct{}, runtime.GOMAXPROCS(0)),
		kem:        kem,
		rev:        rev,
	}, nil
}

// Public returns the provider's license/revocation verification key: the
// trust anchor baked into compliant devices.
func (p *Provider) Public() *rsa.PublicKey { return p.signer.Public() }

// Group returns the provider's discrete-log group.
func (p *Provider) Group() *schnorr.Group { return p.group }

// log numbers and timestamps a journal event and hands it to the
// journal; under jmu, so the journal sees Seq 1, 2, 3, ... in order.
func (p *Provider) log(e Event) {
	if p.cfg.Journal == nil {
		return
	}
	p.jmu.Lock()
	defer p.jmu.Unlock()
	p.seq++
	e.Seq = p.seq
	e.At = p.cfg.Clock()
	p.cfg.Journal(e)
}

// EventLog keeps every event it is given, for the in-process harnesses
// that read a journal back (core.System, the adversary tests). Its
// Record method is a Config.Journal.
type EventLog struct {
	mu     sync.Mutex
	events []Event
}

// Record appends e.
func (l *EventLog) Record(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// Events returns a copy of what was recorded, in Seq order.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// fingerprint renders a pseudonym fingerprint for journaling and storage.
func (p *Provider) fingerprint(signPub []byte) string {
	fp := p.group.Fingerprint(new(big.Int).SetBytes(signPub))
	return hex.EncodeToString(fp[:])
}

// AddContent encrypts plaintext under a fresh content key and lists the
// item. One denomination key pair is generated per item: the blind
// signature's meaning ("this is an anonymous license for item X with
// template rights R") is carried entirely by WHICH key signed it.
//
// Key generation and envelope encryption — the expensive parts — run
// before the catalog lock is taken; the write section is map inserts
// only, so AddContent can run while the serving path reads the catalog.
func (p *Provider) AddContent(id license.ContentID, title string, price int64, template *rel.Rights, plaintext []byte) (*CatalogItem, error) {
	if id == "" {
		return nil, errors.New("provider: empty content id")
	}
	if price < 0 {
		return nil, errors.New("provider: negative price")
	}
	if err := template.Validate(); err != nil {
		return nil, fmt.Errorf("provider: template: %w", err)
	}
	// Every license sold under the template carries its canonical text and
	// is decoded with rel.Parse, on the device and at exchange here.
	back, err := rel.Parse(template.String())
	if err == nil && !back.Equal(template) {
		err = errors.New("it parses to other rights")
	}
	if err != nil {
		return nil, fmt.Errorf("provider: template's canonical text does not parse back: %w", err)
	}
	key, err := envelope.NewContentKey()
	if err != nil {
		return nil, err
	}
	var enc bytes.Buffer
	if err := envelope.EncryptStream(&enc, bytes.NewReader(plaintext), key, int64(len(plaintext)), 0); err != nil {
		return nil, err
	}
	denomKey, err := rsa.GenerateKey(rand.Reader, p.cfg.DenomKeyBits)
	if err != nil {
		return nil, fmt.Errorf("provider: denomination key: %w", err)
	}
	denomSigner, err := rsablind.NewSigner(denomKey)
	if err != nil {
		return nil, err
	}
	denom := license.Denom(id, template)

	item := &CatalogItem{
		ID:           id,
		Title:        title,
		PriceCredits: price,
		Template:     template.Clone(),
		Encrypted:    enc.Bytes(),
		contentKey:   key,
		denom:        denom,
	}
	p.catMu.Lock()
	defer p.catMu.Unlock()
	if _, dup := p.catalog[id]; dup {
		return nil, fmt.Errorf("provider: content %q already listed", id)
	}
	p.catalog[id] = item
	p.denoms[denom] = denomSigner
	p.denomByC[id] = denom
	p.itemByD[denom] = item
	return item, nil
}

// Item looks up a catalog item.
func (p *Provider) Item(id license.ContentID) (*CatalogItem, error) {
	p.catMu.RLock()
	defer p.catMu.RUnlock()
	item, ok := p.catalog[id]
	if !ok {
		return nil, ErrUnknownContent
	}
	return item, nil
}

// Catalog lists all items.
func (p *Provider) Catalog() []*CatalogItem {
	p.catMu.RLock()
	defer p.catMu.RUnlock()
	out := make([]*CatalogItem, 0, len(p.catalog))
	for _, item := range p.catalog {
		out = append(out, item)
	}
	return out
}

// DenomPublic returns the denomination verification key for an item.
func (p *Provider) DenomPublic(id license.ContentID) (*rsa.PublicKey, license.DenominationID, error) {
	p.catMu.RLock()
	defer p.catMu.RUnlock()
	denom, ok := p.denomByC[id]
	if !ok {
		return nil, license.DenominationID{}, ErrUnknownContent
	}
	return p.denoms[denom].Public(), denom, nil
}

// denomState snapshots the signer and item for a denomination under a
// short read lock, so callers can run crypto on them lock-free.
func (p *Provider) denomState(d license.DenominationID) (*rsablind.Signer, *CatalogItem, bool) {
	p.catMu.RLock()
	defer p.catMu.RUnlock()
	signer, ok := p.denoms[d]
	if !ok {
		return nil, nil, false
	}
	return signer, p.itemByD[d], true
}

// registration storage key
func regKey(fp string) []byte { return []byte("pseudonym:" + fp) }

// Register records a pseudonym after verifying the ownership proof bound
// to a Challenge nonce. The proof context matches smartcard.Card.Prove.
func (p *Provider) Register(ctx context.Context, signPub, encPub []byte, proof *schnorr.Proof, nonce string) error {
	ctx, commit := kvstore.BeginCommit(ctx)
	err := p.register(ctx, signPub, encPub, proof, nonce)
	if werr := commit.End(ctx); werr != nil {
		return werr
	}
	return err
}

func (p *Provider) register(ctx context.Context, signPub, encPub []byte, proof *schnorr.Proof, nonce string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := p.consumeNonce(nonce); err != nil {
		return err
	}
	signY := new(big.Int).SetBytes(signPub)
	encY := new(big.Int).SetBytes(encPub)
	if err := p.group.ValidatePublicKey(encY); err != nil {
		return fmt.Errorf("provider: enc key: %w", err)
	}
	// Schnorr verification: public-key crypto, no provider lock held.
	// VerifyProof checks the sign key's range and subgroup itself.
	if err := schnorr.VerifyProof(p.group, signY, RegisterContext(nonce), proof); err != nil {
		return fmt.Errorf("%w: %v", ErrBadProof, err)
	}
	fp := p.fingerprint(signPub)
	if err := p.cfg.Store.PutCtx(ctx, regKey(fp), append(append([]byte(nil), signPub...), encPub...)); err != nil {
		return err
	}
	p.log(Event{Type: EvRegister, PseudonymFP: fp})
	return nil
}

// RegisterContext is the proof context for registration with a nonce.
func RegisterContext(nonce string) []byte {
	return []byte("p2drm/register/v1|" + nonce)
}

// registered reports whether (signPub, encPub) is a pseudonym as it was
// registered: the sign key is on record AND the enc key beside it is the
// one Register stored with it. A license is wrapped to the enc key, so a
// known sign key must not vouch for an enc key nobody proved anything
// about.
func (p *Provider) registered(signPub, encPub []byte) bool {
	rec, ok := p.cfg.Store.Get(regKey(p.fingerprint(signPub)))
	return ok && len(rec) == len(signPub)+len(encPub) &&
		bytes.Equal(rec[:len(signPub)], signPub) && bytes.Equal(rec[len(signPub):], encPub)
}

// PurchaseRequest is an anonymous purchase: a registered pseudonym, the
// item, and exact payment in bearer coins.
type PurchaseRequest struct {
	ContentID license.ContentID
	SignPub   []byte
	EncPub    []byte
	Coins     []*payment.Coin
}

// Purchase settles payment and issues a personalized license to the
// pseudonym: IssueBatch with one request. The provider learns the
// pseudonym but neither the identity behind it nor the coins' withdrawal
// origin.
func (p *Provider) Purchase(ctx context.Context, req PurchaseRequest) (*license.Personalized, error) {
	res := p.IssueBatch(ctx, []PurchaseRequest{req})[0]
	return res.License, res.Err
}

// settle is the paying half of a purchase: admission checks, then the
// coins go to the bank.
func (p *Provider) settle(ctx context.Context, req PurchaseRequest) (*CatalogItem, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	item, err := p.Item(req.ContentID)
	if err != nil {
		return nil, err
	}
	if !p.registered(req.SignPub, req.EncPub) {
		return nil, ErrUnknownPseudonym
	}
	if int64(len(req.Coins)) != item.PriceCredits {
		return nil, fmt.Errorf("%w: got %d coins, price %d", ErrWrongPayment, len(req.Coins), item.PriceCredits)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Settle coins; stop at the first bad one. Already-deposited coins
	// stay deposited (the client pays for its own double-spend attempt).
	// No cancellation checks past this point: once money moves, the
	// purchase must complete so the client is never charged licenseless.
	for i, c := range req.Coins {
		if err := p.cfg.Bank.DepositCtx(ctx, p.cfg.BankAccount, c); err != nil {
			return nil, fmt.Errorf("provider: coin %d: %w", i, err)
		}
	}
	return item, nil
}

// failAll folds a call's durability wait into its outcome: a failed wait
// (nil err is the wait that held) is reported through fail for every
// index, the slots that were refused for reasons of their own included —
// a refusal may rest on another request's record (the coin already spent,
// the serial already redeemed) that is not durable yet, and nothing the
// call computed may be reported as committed.
func failAll(n int, fail func(i int, err error), err error) {
	if err == nil {
		return
	}
	for i := 0; i < n; i++ {
		fail(i, err)
	}
}

// BatchResult is one IssueBatch or RedeemBatch outcome: exactly one of
// License and Err is set. Results come back in request order, so position
// identifies the request.
type BatchResult struct {
	License *license.Personalized
	Err     error
}

// runBatch drives do(i) for every index in [0, n). A call of one item —
// every single request — runs it on the caller's goroutine and takes no
// slot, so single-request traffic never queues behind batches. Larger
// calls run on a bounded worker pool: parallelism is bounded provider-wide
// by batchSlots, so any number of concurrent batch calls (purchase,
// exchange, redeem) together use at most GOMAXPROCS crypto workers.
// Indexes whose slot acquisition loses to context cancellation are
// reported through fail instead — don't queue for crypto on behalf of a
// caller that is already gone.
func (p *Provider) runBatch(ctx context.Context, n int, do func(i int), fail func(i int, err error)) {
	switch n {
	case 0:
		return
	case 1:
		do(0)
		return
	}
	workers := cap(p.batchSlots)
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				select {
				case p.batchSlots <- struct{}{}:
				case <-ctx.Done():
					fail(i, ctx.Err())
					continue
				}
				do(i)
				<-p.batchSlots
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// IssueBatch settles a slice of purchases and returns per-request
// outcomes in request order; Purchase is the call with one request, which
// runs on the caller's goroutine (runBatch). Each purchase succeeds or
// fails independently; a cancelled context fails the requests that have
// not started paying yet. The batch runs in two phases around ONE
// payment-before-goods barrier — every request's coins to the bank, the
// barrier, every paid request's license, one wait at the end — so its
// durability cost is one fsync wait whatever its size when the bank
// shares the provider's store (two when it keeps its own), and its
// licenses cost one provider signature per pseudonym named (issueBatch).
// A failed wait fails every slot.
func (p *Provider) IssueBatch(ctx context.Context, reqs []PurchaseRequest) []BatchResult {
	ctx, commit := kvstore.BeginCommit(ctx)
	results := make([]BatchResult, len(reqs))
	fail := func(i int, err error) { results[i] = BatchResult{Err: err} }
	items := make([]*CatalogItem, len(reqs))
	p.runBatch(ctx, len(reqs),
		func(i int) { items[i], results[i].Err = p.settle(ctx, reqs[i]) },
		fail)
	// Payment before goods: no crash leaves a license on record whose
	// coins can be spent again. On the daemon's one log the spent marks
	// precede the issuance records and the barrier waits on nothing; a
	// bank on a store of its own is made durable here first. The reverse
	// loss (coins spent, no license) costs the buyer the coins: p2drmd
	// keeps no journal to recover the sale from.
	if err := commit.Barrier(ctx, p.cfg.Store); err != nil {
		failAll(len(reqs), fail, err)
		return results
	}
	// Money has moved: the issuing phase no longer observes cancellation,
	// so no client is charged licenseless.
	ctx = context.WithoutCancel(ctx)
	lics := make([]*license.Personalized, len(reqs))
	p.runBatch(ctx, len(reqs),
		func(i int) {
			if results[i].Err == nil {
				lics[i], results[i].Err = p.build(items[i], reqs[i].SignPub, reqs[i].EncPub)
			}
		},
		fail)
	p.issueBatch(ctx, lics, fail)
	for i, lic := range lics {
		if lic != nil && results[i].Err == nil {
			results[i].License = lic
			p.logIssued(EvPurchase, lic, "")
		}
	}
	failAll(len(reqs), fail, commit.End(ctx))
	return results
}

// ExchangeItem is one exchange: a live license, an ownership proof bound
// to a fresh nonce, and the blinded anonymous serial to sign. KeyID, when
// set, is the rsablind.KeyID of the denomination key the holder blinded
// under: if that is not the key the provider would sign with, the
// exchange is refused with rsablind.ErrStaleKey before the nonce is
// consumed or the license retired, so a holder working from a cached key
// loses nothing to a key that changed.
type ExchangeItem struct {
	License *license.Personalized
	Proof   *schnorr.Proof
	Nonce   string
	Blinded []byte
	KeyID   string
}

// ExchangeBatchResult is one ExchangeBatch outcome: exactly one of
// BlindSig and Err is set.
type ExchangeBatchResult struct {
	BlindSig []byte
	Err      error
}

// ExchangeBatch retires a slice of licenses, pairing purchase batching on
// the deposit side: bulk wallets retire a day's licenses in one call;
// Exchange is the call with one item. Outcomes come back in request
// order; each item keeps the single-winner and revoke-before-sign
// semantics of exchange. The whole call shares one durability wait; if it
// fails, every slot fails.
func (p *Provider) ExchangeBatch(ctx context.Context, items []ExchangeItem) []ExchangeBatchResult {
	ctx, commit := kvstore.BeginCommit(ctx)
	results := make([]ExchangeBatchResult, len(items))
	fail := func(i int, err error) { results[i] = ExchangeBatchResult{Err: err} }
	// One combined Schnorr multi-exponentiation settles every well-formed
	// ownership proof up front; the per-item workers then skip their own
	// VerifyProof. Items the batch could not judge (nil license/proof),
	// and a call of one item, verify inline.
	verdicts := p.preverifyExchangeProofs(items)
	p.runBatch(ctx, len(items),
		func(i int) {
			sig, err := p.exchange(ctx, items[i], verdicts[i])
			results[i] = ExchangeBatchResult{BlindSig: sig, Err: err}
		},
		fail)
	failAll(len(items), fail, commit.End(ctx))
	return results
}

// RedeemItem is one RedeemBatch entry, mirroring Redeem's arguments.
type RedeemItem struct {
	Anonymous *license.Anonymous
	SignPub   []byte
	EncPub    []byte
}

// RedeemBatch redeems a slice of anonymous licenses; Redeem is the call
// with one item. Outcomes come back in request order; the durable
// redeemed-serial CAS guarantees a single winner per serial, even when
// the same serial appears twice in one batch. The admitted slots'
// licenses cost one provider signature per pseudonym named (issueBatch).
// The whole call shares one durability wait; if it fails, every slot
// fails.
func (p *Provider) RedeemBatch(ctx context.Context, items []RedeemItem) []BatchResult {
	ctx, commit := kvstore.BeginCommit(ctx)
	results := make([]BatchResult, len(items))
	fail := func(i int, err error) { results[i] = BatchResult{Err: err} }
	lics := make([]*license.Personalized, len(items))
	p.runBatch(ctx, len(items),
		func(i int) {
			it := items[i]
			lics[i], results[i].Err = p.admit(ctx, it.Anonymous, it.SignPub, it.EncPub)
		},
		fail)
	// Serials are burned: like a purchase whose money has moved, the
	// issuing phase no longer observes cancellation.
	ctx = context.WithoutCancel(ctx)
	p.issueBatch(ctx, lics, fail)
	for i, lic := range lics {
		if lic != nil && results[i].Err == nil {
			results[i].License = lic
			p.logIssued(EvRedeem, lic, items[i].Anonymous.Serial.String())
		}
	}
	failAll(len(items), fail, commit.End(ctx))
	return results
}

// build makes the unsigned license for item to a registered pseudonym.
// The wrap goes through the provider's sender: an exponentiation the
// first time this enc key is wrapped to, a lookup from then on, with no
// provider lock held.
func (p *Provider) build(item *CatalogItem, signPub, encPub []byte) (*license.Personalized, error) {
	serial, err := license.NewSerial()
	if err != nil {
		return nil, err
	}
	encY := new(big.Int).SetBytes(encPub)
	kw, err := license.WrapKeyFrom(p.kem, encY, item.contentKey,
		license.WrapLabelPersonalized(serial, item.ID))
	if err != nil {
		return nil, err
	}
	return &license.Personalized{
		Serial:     serial,
		ContentID:  item.ID,
		HolderSign: append([]byte(nil), signPub...),
		HolderEnc:  append([]byte(nil), encPub...),
		Rights:     item.Template.Clone(),
		KeyWrap:    kw,
		IssuedAt:   p.cfg.Clock().UTC().Truncate(time.Second),
	}, nil
}

// issuedKey is where a license's issuance is recorded: the exact bytes
// that left this provider, which is what Exchange later holds a presented
// license against.
func issuedKey(s license.Serial) []byte { return []byte("issued:" + s.String()) }

// record signs built licenses that all name one pseudonym — never call it
// across two: what shares a root is provably co-issued — and appends
// their issuance records under the request's commit set.
func (p *Provider) record(ctx context.Context, lics ...*license.Personalized) error {
	if err := license.Sign(p.signer, lics...); err != nil {
		return err
	}
	for _, lic := range lics {
		if err := p.cfg.Store.PutCtx(ctx, issuedKey(lic.Serial), lic.Marshal()); err != nil {
			return err
		}
	}
	return nil
}

// issueBatch records a batch call's built licenses (nil where the slot
// has already failed), one root per registered holder pair: the fold
// VerifyProofBatch does over the same keys, so what a shared root links
// is what naming one pseudonym has linked already, and a call that names
// two pseudonyms yields two roots with nothing in common. The groups are
// signed on the shared worker slots. A group that cannot be signed or
// recorded fails each of its slots through fail and no other's.
func (p *Provider) issueBatch(ctx context.Context, lics []*license.Personalized, fail func(i int, err error)) {
	type holder struct{ sign, enc string }
	filling := make(map[holder]int) // the group a holder's next license joins
	var groups [][]int
	for i, lic := range lics {
		if lic == nil {
			continue
		}
		h := holder{string(lic.HolderSign), string(lic.HolderEnc)}
		g, ok := filling[h]
		if !ok || len(groups[g]) == license.MaxPerRoot {
			g = len(groups)
			filling[h] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	failGroup := func(g int, err error) {
		for _, i := range groups[g] {
			fail(i, err)
		}
	}
	p.runBatch(ctx, len(groups),
		func(g int) {
			set := make([]*license.Personalized, len(groups[g]))
			for k, i := range groups[g] {
				set[k] = lics[i]
			}
			if err := p.record(ctx, set...); err != nil {
				failGroup(g, err)
			}
		},
		failGroup)
}

// logIssued journals a license leaving the provider: a purchase, or the
// redemption of anonSerial.
func (p *Provider) logIssued(typ EventType, lic *license.Personalized, anonSerial string) {
	p.log(Event{
		Type:        typ,
		PseudonymFP: p.fingerprint(lic.HolderSign),
		ContentID:   lic.ContentID,
		Serial:      lic.Serial.String(),
		AnonSerial:  anonSerial,
	})
}

// ExchangeContext is the proof context binding an exchange to a nonce and
// the license being given up.
func ExchangeContext(nonce string, serial license.Serial) []byte {
	return []byte("p2drm/exchange/v1|" + nonce + "|" + serial.String())
}

// Exchange retires a live personalized license and blind-signs the
// presented blinded anonymous-serial under the item's denomination key:
// ExchangeBatch with one item. The provider never sees the serial inside
// `blinded`.
func (p *Provider) Exchange(ctx context.Context, lic *license.Personalized, proof *schnorr.Proof, nonce string, blinded []byte) ([]byte, error) {
	res := p.ExchangeBatch(ctx, []ExchangeItem{{License: lic, Proof: proof, Nonce: nonce, Blinded: blinded}})[0]
	return res.BlindSig, res.Err
}

// exchange runs one ExchangeBatch item, with the ownership-proof verdict
// the combined check settled for it, or nil to verify inline. The verdict
// is exactly what the inline VerifyProof would return for the same
// inputs, so every check runs in the same order with the same errors.
func (p *Provider) exchange(ctx context.Context, it ExchangeItem, verdict *proofVerdict) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lic, proof, nonce, blinded := it.License, it.Proof, it.Nonce, it.Blinded
	// A holder who names the key it blinded under is refused here, with
	// nonce and license intact, if the signature below would be made
	// under any other.
	if it.KeyID != "" && lic != nil {
		signer, ok := p.denomSignerByContent(lic.ContentID)
		if !ok {
			return nil, rsablind.ErrStaleKey
		}
		if err := signer.CheckKeyID(it.KeyID); err != nil {
			return nil, err
		}
	}
	if err := p.consumeNonce(nonce); err != nil {
		return nil, err
	}
	if err := p.onRecord(lic); err != nil {
		return nil, err
	}
	if p.rev.Contains(lic.Serial) {
		// The revocation is visible, not necessarily durable: the refusal
		// waits for it like the loser of the TryAddCtx gate below would.
		if err := p.cfg.Store.ReadBarrierCtx(ctx); err != nil {
			return nil, err
		}
		return nil, ErrLicenseRevoked
	}
	// Holder must prove ownership: stops theft-by-exchange of a copied
	// license file. Schnorr verification runs lock-free; batch callers
	// arrive with the verdict already settled by the combined check.
	proofErr := error(nil)
	if verdict != nil {
		proofErr = verdict.err
	} else {
		holderY := new(big.Int).SetBytes(lic.HolderSign)
		proofErr = schnorr.VerifyProof(p.group, holderY, ExchangeContext(nonce, lic.Serial), proof)
	}
	if proofErr != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProof, proofErr)
	}
	denomSigner, okd := p.denomSignerByContent(lic.ContentID)
	if !okd {
		return nil, ErrUnknownDenom
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Revoke first: if we crash between revoke and sign, the user has
	// lost the license and gained nothing, and p2drmd keeps no journal to
	// give it back from; the reverse order would mint free licenses.
	// TryAddCtx is also the double-exchange gate: the rev.Contains check
	// above is only a fast path, so of any number of concurrent
	// exchanges of one license, exactly one reaches the blind signature.
	// The revocation is appended here and signed over below; both leave
	// this process only after the request's durability wait.
	fresh, err := p.rev.TryAddCtx(ctx, lic.Serial)
	if err != nil {
		return nil, err
	}
	if !fresh {
		return nil, ErrLicenseRevoked
	}
	blindSig, err := denomSigner.SignBlinded(blinded)
	if err != nil {
		return nil, err
	}
	bh := sha256.Sum256(blinded)
	p.log(Event{
		Type:        EvExchange,
		ContentID:   lic.ContentID,
		Serial:      lic.Serial.String(),
		BlindedHash: hex.EncodeToString(bh[:8]),
	})
	return blindSig, nil
}

// onRecord admits only a license this provider issued: its issuance
// record must hold exactly the presented bytes. The record was written
// with the signature this provider made, so a match says everything
// VerifyPersonalized would and costs no public-key operation; only a
// license that does NOT match is verified, to tell a forged one (the
// verification error) from a well-signed one this store never issued.
func (p *Provider) onRecord(lic *license.Personalized) error {
	if lic != nil && lic.Validate() == nil {
		stored, ok := p.cfg.Store.Get(issuedKey(lic.Serial))
		if ok && bytes.Equal(stored, lic.Marshal()) {
			return nil
		}
	}
	if err := license.VerifyPersonalized(p.Public(), lic); err != nil {
		return err
	}
	return errors.New("provider: license not on issuance record")
}

// denomSignerByContent resolves a content id to its denomination signer
// under one short read lock.
func (p *Provider) denomSignerByContent(id license.ContentID) (*rsablind.Signer, bool) {
	p.catMu.RLock()
	defer p.catMu.RUnlock()
	denom, ok := p.denomByC[id]
	if !ok {
		return nil, false
	}
	return p.denoms[denom], true
}

// redeemedKey marks consumed anonymous serials.
func redeemedKey(s license.Serial) []byte { return []byte("redeemed:" + s.String()) }

// Redeem verifies an anonymous license and issues a fresh personalized
// license to the presented (registered) pseudonym: RedeemBatch with one
// item. Double redemption is blocked by an atomic insert into the durable
// redeemed-serial set: of any number of concurrent redemptions of one
// serial, exactly one wins.
func (p *Provider) Redeem(ctx context.Context, anon *license.Anonymous, signPub, encPub []byte) (*license.Personalized, error) {
	res := p.RedeemBatch(ctx, []RedeemItem{{Anonymous: anon, SignPub: signPub, EncPub: encPub}})[0]
	return res.License, res.Err
}

// admit is the burning half of a redemption: the anonymous license and
// the pseudonym are checked, the serial goes through the double-spend
// gate, and the winner gets its license built, unsigned.
func (p *Provider) admit(ctx context.Context, anon *license.Anonymous, signPub, encPub []byte) (*license.Personalized, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	denomSigner, item, ok := p.denomState(anon.Denom)
	if !ok || item == nil {
		return nil, ErrUnknownDenom
	}
	// Signature check on the anonymous license: lock-free.
	if err := license.VerifyAnonymous(denomSigner.Public(), anon); err != nil {
		return nil, err
	}
	if !p.registered(signPub, encPub) {
		return nil, ErrUnknownPseudonym
	}
	// The double-spend gate. If issuing fails after this point the serial
	// stays burned and the redeemer has lost the license — the same loss
	// as the revoke-before-sign ordering in exchange.
	inserted, err := p.cfg.Store.PutIfAbsentCtx(ctx, redeemedKey(anon.Serial), []byte{1})
	if err != nil {
		return nil, err
	}
	if !inserted {
		return nil, ErrAlreadyRedeemed
	}
	return p.build(item, signPub, encPub)
}

// RevocationFilter exports the current signed filter for devices: the
// artefact is cut once per list version (see package revocation) and is
// shared between callers, so it is read-only.
func (p *Provider) RevocationFilter() (*revocation.SignedFilter, error) {
	return p.rev.ExportFilter(p.signer, p.cfg.Clock())
}

// RevocationFilterWire is RevocationFilter in the artefact's wire
// encoding (revocation.ParseSignedFilter reads it), built once with it.
func (p *Provider) RevocationFilterWire() ([]byte, error) {
	return p.rev.ExportFilterWire(p.signer, p.cfg.Clock())
}

// RevocationExportStats reports how many signed-filter exports were
// answered from the cached artefact and how many signed a new one.
func (p *Provider) RevocationExportStats() (cached, signed uint64) {
	return p.rev.ExportStats()
}

// RSAPrivateOps reports the private-key operations this provider's keys
// have run: the license key's (one per root Sign is called for, plus the
// revocation filters it also signs) and the denomination keys' together
// (one blind signature per exchange).
func (p *Provider) RSAPrivateOps() (licenseKey, denominationKeys uint64) {
	p.catMu.RLock()
	defer p.catMu.RUnlock()
	for _, signer := range p.denoms {
		denominationKeys += signer.PrivateOps()
	}
	return p.signer.PrivateOps(), denominationKeys
}

// KEMShareStats reports how many key wraps found their recipient's share
// in the sender's cache and how many computed it (first license to an enc
// key since this process started, or since the key aged out).
func (p *Provider) KEMShareStats() (cached, computed uint64) { return p.kem.Stats() }

// Revoked reports whether a serial is revoked: the exact answer behind
// GET /v2/revocation/contains.
func (p *Provider) Revoked(s license.Serial) bool { return p.rev.Contains(s) }

// RevokedCount reports the revocation list size.
func (p *Provider) RevokedCount() int { return p.rev.Len() }

// BlindedHashForTest exposes the journal's blinded-blob encoding so
// linkage experiments and tests can recompute candidate hashes exactly as
// an adversarial provider would.
func BlindedHashForTest(blinded []byte) string {
	h := sha256.Sum256(blinded)
	return hex.EncodeToString(h[:8])
}
