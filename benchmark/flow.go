package main

// Client flows: the benchmark's side of the paper's protocol, written
// against httpapi.Client, smartcard.Card and the client-side cryptox
// calls. Every call into those layers sits inside a span (a no-op when
// untraced), and every output is checked: licences verify against the
// pinned provider key, revocation answers match what the trace expects.

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"p2drm/internal/cryptox/kdf"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/httpapi"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/revocation"
	"p2drm/internal/smartcard"
)

// user is one simulated user: a smartcard derived from the seed, a
// funded bank account, pseudonym 0 registered during set-up for plain
// purchases, and a counter handing out fresh pseudonym indices.
type user struct {
	card    *smartcard.Card
	account string
	next    atomic.Uint32
}

// world is what every worker of one repetition shares.
type world struct {
	wl      *workload
	seed    int64
	users   []*user
	price   int
	provKey *rsa.PublicKey
	// content is the SHA-256 of the item's encrypted blob as first
	// downloaded; every later download must match it.
	content [sha256.Size]byte
	// filterBytes is the size of the last signed filter downloaded.
	filterBytes atomic.Int64
}

// flow is one worker's clients and recorder.
type flow struct {
	w                *world
	primary, replica *httpapi.Client
	rec              *recorder
}

// newWorld funds the users, registers each one's standing pseudonym and
// pins the provider key, the item's price and its content hash.
func newWorld(wl *workload, seed int64, c *httpapi.Client) (*world, error) {
	w := &world{wl: wl, seed: seed}
	var err error
	if w.provKey, err = c.ProviderKey(); err != nil {
		return nil, fmt.Errorf("provider key: %w", err)
	}
	cat, err := c.Catalog()
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	for _, e := range cat {
		if e.ID == contentID {
			w.price = int(e.PriceCredits)
		}
	}
	if w.price == 0 {
		return nil, fmt.Errorf("catalog has no priced item %q", contentID)
	}
	blob, err := c.Content(contentID)
	if err != nil || len(blob) == 0 {
		return nil, fmt.Errorf("content %q: %d bytes, %v", contentID, len(blob), err)
	}
	w.content = sha256.Sum256(blob)
	setup := &flow{w: w, primary: c}
	for i := 0; i < wl.users; i++ {
		u := &user{
			card: smartcard.New(c.Group, [kdf.SeedLen]byte(
				sha256.Sum256([]byte(fmt.Sprintf("p2drm-benchmark/%d/user/%d", seed, i))))),
			account: fmt.Sprintf("u%03d", i),
		}
		if err := c.CreateAccount(u.account, 100_000_000); err != nil {
			return nil, fmt.Errorf("fund user %d: %w", i, err)
		}
		if _, err := setup.register(u); err != nil {
			return nil, fmt.Errorf("register user %d: %w", i, err)
		}
		w.users = append(w.users, u)
	}
	return w, nil
}

// register takes the user's next pseudonym index through the
// challenge/prove/register handshake and returns it.
func (f *flow) register(u *user) (uint32, error) {
	idx := u.next.Add(1) - 1
	s := f.rec.begin("smartcard.pseudonym")
	ps, err := u.card.Pseudonym(idx)
	f.rec.end(s)
	if err != nil {
		return 0, err
	}
	s = f.rec.begin("sdk.challenge")
	nonce, err := f.primary.Challenge()
	f.rec.end(s)
	if err != nil {
		return 0, fmt.Errorf("challenge: %w", err)
	}
	s = f.rec.begin("smartcard.prove")
	proof, err := u.card.Prove(idx, provider.RegisterContext(nonce))
	f.rec.end(s)
	if err != nil {
		return 0, err
	}
	g := f.primary.Group
	s = f.rec.begin("sdk.register")
	err = f.primary.Register(ps.SignPublic(g), ps.EncPublic(g), proof, nonce)
	f.rec.end(s)
	if err != nil {
		return 0, fmt.Errorf("register: %w", err)
	}
	return idx, nil
}

// pubKeys returns the encoded public halves of the user's pseudonym idx.
func (f *flow) pubKeys(u *user, idx uint32) (signPub, encPub []byte, err error) {
	s := f.rec.begin("smartcard.pseudonym")
	ps, err := u.card.Pseudonym(idx)
	f.rec.end(s)
	if err != nil {
		return nil, nil, err
	}
	g := f.primary.Group
	return ps.SignPublic(g), ps.EncPublic(g), nil
}

func (f *flow) withdraw(u *user, n int) ([]*payment.Coin, error) {
	s := f.rec.begin("sdk.withdraw_coins")
	coins, err := f.primary.WithdrawCoins(u.account, n)
	f.rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("withdraw: %w", err)
	}
	return coins, nil
}

// verify checks a licence the provider returned against the pinned key
// and the pseudonym it must be bound to.
func (f *flow) verify(lic *license.Personalized, signPub []byte) error {
	s := f.rec.begin("cryptox.verify_license")
	err := license.VerifyPersonalized(f.w.provKey, lic)
	f.rec.end(s)
	if err != nil {
		return fmt.Errorf("licence does not verify: %w", err)
	}
	if lic.ContentID != contentID || !bytes.Equal(lic.HolderSign, signPub) {
		return errors.New("licence is for the wrong content or holder")
	}
	return nil
}

// purchase buys the item under the user's standing pseudonym.
func (f *flow) purchase(u *user) (*license.Personalized, error) {
	coins, err := f.withdraw(u, f.w.price)
	if err != nil {
		return nil, err
	}
	return f.purchaseWith(u, coins)
}

func (f *flow) purchaseWith(u *user, coins []*payment.Coin) (*license.Personalized, error) {
	signPub, encPub, err := f.pubKeys(u, 0)
	if err != nil {
		return nil, err
	}
	s := f.rec.begin("sdk.purchase")
	lic, err := f.primary.Purchase(contentID, signPub, encPub, coins)
	f.rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("purchase: %w", err)
	}
	return lic, f.verify(lic, signPub)
}

// blinded is the client half of one exchange: a fresh anonymous serial,
// its blinded form and the state that unblinds the provider's signature.
type blinded struct {
	serial license.Serial
	blob   []byte
	state  *rsablind.State
}

func (f *flow) blind(denomPub *rsa.PublicKey, denomID license.DenominationID) (*blinded, error) {
	serial, err := license.NewSerial()
	if err != nil {
		return nil, err
	}
	s := f.rec.begin("cryptox.blind")
	blob, st, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
	f.rec.end(s)
	if err != nil {
		return nil, err
	}
	return &blinded{serial: serial, blob: blob, state: st}, nil
}

func (f *flow) unblind(denomPub *rsa.PublicKey, denomID license.DenominationID, b *blinded, blindSig []byte) (*license.Anonymous, error) {
	s := f.rec.begin("cryptox.unblind")
	sig, err := rsablind.Unblind(denomPub, b.state, blindSig)
	f.rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("unblind: %w", err)
	}
	return &license.Anonymous{Serial: b.serial, Denom: denomID, Sig: sig}, nil
}

func (f *flow) denomination() (*rsa.PublicKey, license.DenominationID, error) {
	s := f.rec.begin("sdk.denomination")
	pub, id, err := f.primary.Denomination(contentID)
	f.rec.end(s)
	if err != nil {
		return nil, id, fmt.Errorf("denomination: %w", err)
	}
	return pub, id, nil
}

// ownershipProof fetches a fresh nonce and proves ownership of the
// licence's holder pseudonym for an exchange.
func (f *flow) ownershipProof(u *user, lic *license.Personalized) (*schnorr.Proof, string, error) {
	s := f.rec.begin("sdk.challenge")
	nonce, err := f.primary.Challenge()
	f.rec.end(s)
	if err != nil {
		return nil, "", fmt.Errorf("challenge: %w", err)
	}
	s = f.rec.begin("smartcard.prove")
	proof, err := u.card.Prove(0, provider.ExchangeContext(nonce, lic.Serial))
	f.rec.end(s)
	return proof, nonce, err
}

// exchanged is what a completed purchase + exchange leaves behind.
type exchanged struct {
	lic  *license.Personalized // the retired personalised licence
	anon *license.Anonymous    // the bearer licence that replaced it
	at   time.Time             // when the exchange was acknowledged
}

// exchange buys the item and swaps the licence for an anonymous one.
func (f *flow) exchange(buyer *user) (*exchanged, error) {
	lic, err := f.purchase(buyer)
	if err != nil {
		return nil, err
	}
	denomPub, denomID, err := f.denomination()
	if err != nil {
		return nil, err
	}
	b, err := f.blind(denomPub, denomID)
	if err != nil {
		return nil, err
	}
	proof, nonce, err := f.ownershipProof(buyer, lic)
	if err != nil {
		return nil, err
	}
	s := f.rec.begin("sdk.exchange")
	blindSig, err := f.primary.Exchange(lic, proof, nonce, b.blob)
	f.rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("exchange: %w", err)
	}
	at := time.Now()
	anon, err := f.unblind(denomPub, denomID, b, blindSig)
	if err != nil {
		return nil, err
	}
	return &exchanged{lic: lic, anon: anon, at: at}, nil
}

// redeem registers a fresh pseudonym for the peer and redeems anon to it.
func (f *flow) redeem(peer *user, anon *license.Anonymous) error {
	idx, err := f.register(peer)
	if err != nil {
		return err
	}
	signPub, encPub, err := f.pubKeys(peer, idx)
	if err != nil {
		return err
	}
	s := f.rec.begin("sdk.redeem")
	lic, err := f.primary.Redeem(anon, signPub, encPub)
	f.rec.end(s)
	if err != nil {
		return fmt.Errorf("redeem: %w", err)
	}
	return f.verify(lic, signPub)
}

// playback is the paper's unlinkable flow end to end.
func (f *flow) playback(buyer, peer *user) error {
	ex, err := f.exchange(buyer)
	if err != nil {
		return err
	}
	return f.redeem(peer, ex.anon)
}

// batch moves batchSize licences through the synchronous batch calls:
// bought under the buyer's standing pseudonym, exchanged with one proof
// and one blinded serial each, redeemed to the peer's standing pseudonym.
func (f *flow) batch(buyer, peer *user) error {
	coins, err := f.withdraw(buyer, batchSize*f.w.price)
	if err != nil {
		return err
	}
	signPub, encPub, err := f.pubKeys(buyer, 0)
	if err != nil {
		return err
	}
	purchases := make([]httpapi.BatchPurchase, batchSize)
	for i := range purchases {
		purchases[i] = httpapi.BatchPurchase{
			ContentID: contentID, SignPub: signPub, EncPub: encPub,
			Coins: coins[i*f.w.price : (i+1)*f.w.price],
		}
	}
	s := f.rec.begin("sdk.purchase_batch")
	lics, errs, err := f.primary.PurchaseBatch(purchases)
	f.rec.end(s)
	if err := errors.Join(append(errs, err)...); err != nil {
		return fmt.Errorf("purchase batch: %w", err)
	}
	denomPub, denomID, err := f.denomination()
	if err != nil {
		return err
	}
	blinds := make([]*blinded, batchSize)
	exchanges := make([]httpapi.BatchExchange, batchSize)
	for i, lic := range lics {
		if err := f.verify(lic, signPub); err != nil {
			return err
		}
		if blinds[i], err = f.blind(denomPub, denomID); err != nil {
			return err
		}
		proof, nonce, err := f.ownershipProof(buyer, lic)
		if err != nil {
			return err
		}
		exchanges[i] = httpapi.BatchExchange{License: lic, Proof: proof, Nonce: nonce, Blinded: blinds[i].blob}
	}
	s = f.rec.begin("sdk.exchange_batch")
	sigs, errs, err := f.primary.ExchangeBatch(exchanges)
	f.rec.end(s)
	if err := errors.Join(append(errs, err)...); err != nil {
		return fmt.Errorf("exchange batch: %w", err)
	}
	peerSign, peerEnc, err := f.pubKeys(peer, 0)
	if err != nil {
		return err
	}
	redeems := make([]httpapi.BatchRedeem, batchSize)
	for i, sig := range sigs {
		anon, err := f.unblind(denomPub, denomID, blinds[i], sig)
		if err != nil {
			return err
		}
		redeems[i] = httpapi.BatchRedeem{Anonymous: anon, SignPub: peerSign, EncPub: peerEnc}
	}
	s = f.rec.begin("sdk.redeem_batch")
	lics, errs, err = f.primary.RedeemBatch(redeems)
	f.rec.end(s)
	if err := errors.Join(append(errs, err)...); err != nil {
		return fmt.Errorf("redeem batch: %w", err)
	}
	for _, lic := range lics {
		if err := f.verify(lic, peerSign); err != nil {
			return err
		}
	}
	return nil
}

func (f *flow) catalog() error {
	s := f.rec.begin("sdk.catalog")
	cat, err := f.primary.Catalog()
	f.rec.end(s)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if len(cat) == 0 {
		return errors.New("catalog is empty")
	}
	return nil
}

func (f *flow) content() error {
	s := f.rec.begin("sdk.content")
	blob, err := f.primary.Content(contentID)
	f.rec.end(s)
	if err != nil {
		return fmt.Errorf("content: %w", err)
	}
	if sha256.Sum256(blob) != f.w.content {
		return errors.New("content blob changed between downloads")
	}
	return nil
}

// stats reads engine statistics from the replica.
func (f *flow) stats() error {
	s := f.rec.begin("sdk.stats")
	st, err := f.replica.Stats()
	f.rec.end(s)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if _, ok := st.Stores["provider"]; !ok {
		return errors.New("replica stats lack the provider store")
	}
	return nil
}

// revCheck asks the replica whether the op's serial is revoked and
// compares the answer with what the trace says it must be.
func (f *flow) revCheck(op opSpec) error {
	class := "live"
	if op.revoked {
		class = "revoked"
	}
	s := f.rec.begin("sdk.revocation_check")
	found, err := f.replica.RevocationContains(serialFor(f.w.seed, class, op.serial))
	f.rec.end(s)
	if err != nil {
		return fmt.Errorf("revocation check: %w", err)
	}
	if found != op.revoked {
		return fmt.Errorf("replica says revoked=%v for a %s serial", found, class)
	}
	return nil
}

// filter downloads the signed revocation filter, verifies the signature
// and requires a preloaded serial to test positive.
func (f *flow) filter() error {
	s := f.rec.begin("sdk.revocation_filter")
	sf, err := f.primary.RevocationFilter()
	f.rec.end(s)
	if err != nil {
		return fmt.Errorf("revocation filter: %w", err)
	}
	s = f.rec.begin("cryptox.verify_filter")
	bf, err := revocation.VerifyFilter(f.w.provKey, sf)
	f.rec.end(s)
	if err != nil {
		return fmt.Errorf("filter does not verify: %w", err)
	}
	f.w.filterBytes.Store(int64(len(sf.Filter)))
	if f.w.wl.preload > 0 {
		if serial := serialFor(f.w.seed, "revoked", 0); !bf.Contains(serial[:]) {
			return errors.New("signed filter misses a preloaded revoked serial")
		}
	}
	return nil
}

// do runs one generated op. index numbers the op's root span.
func (f *flow) do(index int, op opSpec) error {
	root := f.rec.beginOp(index, "op."+op.kind.String())
	defer f.rec.end(root)
	u, p := f.w.users[op.user], f.w.users[op.peer]
	switch op.kind {
	case opPlayback:
		return f.playback(u, p)
	case opCatalog:
		return f.catalog()
	case opContent:
		return f.content()
	case opStats:
		return f.stats()
	case opRevCheck:
		return f.revCheck(op)
	case opFilter:
		return f.filter()
	case opPurchase:
		_, err := f.purchase(u)
		return err
	case opBatch:
		return f.batch(u, p)
	}
	return fmt.Errorf("unknown op kind %d", op.kind)
}
