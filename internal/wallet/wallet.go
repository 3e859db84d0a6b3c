// Package wallet is the client half of every P2DRM protocol, written
// once: a smartcard, a purse of unspent blind coins, a pseudonym ledger
// and a licence store in one kvstore, in memory or in a directory (the
// p2drm CLI's). It reaches the provider and bank through a Party:
// *httpapi.Client, or Local in process.
//
// Conservation: withdrawn coins are on record before the purchase that
// spends them is sent, and a coin leaves the purse only once the bank
// holds it — deposited by a purchase that returned a licence, or refused
// as already spent (a purchase whose answer was lost spent it; the buy
// then drops it and tries again). Any other failure leaves the coins in
// the purse, and a buy spends purse coins before it withdraws. What a
// party hands over is returned even when recording it fails: Buy and
// Redeem return the licence, Exchange the token, with that error.
package wallet

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"p2drm/internal/cryptox/kdf"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/device"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/smartcard"
)

// Party is the provider and bank as a wallet sees them: the seven calls
// the client half of the protocols makes. *httpapi.Client implements it
// over HTTP, Local in process.
type Party interface {
	Challenge() (string, error)
	Register(signPub, encPub []byte, proof *schnorr.Proof, nonce string) error
	WithdrawCoins(account string, n int) ([]*payment.Coin, error)
	Purchase(id license.ContentID, signPub, encPub []byte, coins []*payment.Coin) (*license.Personalized, error)
	Denomination(id license.ContentID) (*rsa.PublicKey, license.DenominationID, error)
	Exchange(lic *license.Personalized, proof *schnorr.Proof, nonce string, blinded []byte) ([]byte, error)
	Redeem(anon *license.Anonymous, signPub, encPub []byte) (*license.Personalized, error)
}

// Config says where a wallet lives and whom it talks to.
type Config struct {
	Group *schnorr.Group
	Party Party
	// Dir is the wallet's store directory; "" keeps the wallet in memory.
	Dir string
	// Linkable is the no-blinding ablation: Exchange sends the provider
	// the bare full-domain hash of the anonymous licence it signs, so the
	// provider can link exchange to redeem. Never use outside experiments.
	Linkable bool
}

// The store's records. A licence record is the 4-byte pseudonym index
// followed by the licence; once exchanged, the index alone stays, so the
// ledger still knows which pseudonym held the retired serial.
var (
	keySeed    = []byte("card-seed")
	keyAccount = []byte("bank-account")
	keyNext    = []byte("next-pseudonym")
	prefixCoin = []byte("coin:")
	prefixLic  = "license:"
)

func licKey(s license.Serial) []byte { return []byte(prefixLic + s.String()) }

func coinKey(c *payment.Coin) []byte {
	return append(append([]byte(nil), prefixCoin...), c.Serial[:]...)
}

// Wallet is one user's client state. It is safe for concurrent use:
// concurrent buys never spend the same purse coin.
type Wallet struct {
	cfg     Config
	card    *smartcard.Card
	account string
	store   *kvstore.Store

	mu    sync.Mutex
	purse []*payment.Coin // unspent coins no buy holds
	next  uint32          // first never-reserved pseudonym index

	curMu  sync.Mutex
	cur    uint32
	hasCur bool
}

// Create makes a new wallet: a card from seed (a random one when nil)
// drawing coins from account. A directory that already holds a wallet is
// refused.
func Create(cfg Config, account string, seed *[kdf.SeedLen]byte) (*Wallet, error) {
	if seed == nil {
		seed = new([kdf.SeedLen]byte)
		if _, err := rand.Read(seed[:]); err != nil {
			return nil, err
		}
	}
	st, err := openStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if st.Has(keySeed) {
		st.Close()
		return nil, fmt.Errorf("wallet: %s already holds a wallet", cfg.Dir)
	}
	if err := st.Apply(new(kvstore.Batch).Put(keySeed, seed[:]).Put(keyAccount, []byte(account))); err != nil {
		st.Close()
		return nil, err
	}
	return load(cfg, st)
}

// Open reopens the wallet in cfg.Dir.
func Open(cfg Config) (*Wallet, error) {
	st, err := openStore(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if !st.Has(keySeed) {
		st.Close()
		return nil, fmt.Errorf("wallet: %s holds no wallet", cfg.Dir)
	}
	return load(cfg, st)
}

func openStore(dir string) (*kvstore.Store, error) {
	return kvstore.OpenWith(dir, kvstore.Options{Sync: kvstore.SyncGroupCommit})
}

// load reads a store's card, account, pseudonym counter and purse.
func load(cfg Config, st *kvstore.Store) (*Wallet, error) {
	raw, _ := st.Get(keySeed)
	if len(raw) != kdf.SeedLen {
		st.Close()
		return nil, errors.New("wallet: corrupt card seed")
	}
	seed := [kdf.SeedLen]byte(raw)
	acct, _ := st.Get(keyAccount)
	w := &Wallet{cfg: cfg, card: smartcard.New(cfg.Group, seed), account: string(acct), store: st}
	if raw, ok := st.Get(keyNext); ok && len(raw) == 4 {
		w.next = binary.BigEndian.Uint32(raw)
	}
	st.PrefixScan(prefixCoin, func(k, v []byte) bool {
		c := &payment.Coin{Sig: append([]byte(nil), v...)}
		copy(c.Serial[:], k[len(prefixCoin):])
		w.purse = append(w.purse, c)
		return true
	})
	return w, nil
}

// Close closes the wallet's store, which syncs a directory wallet.
func (w *Wallet) Close() error { return w.store.Close() }

// Card is the wallet's smartcard.
func (w *Wallet) Card() *smartcard.Card { return w.card }

// Account is the bank account coins are withdrawn from.
func (w *Wallet) Account() string { return w.account }

// Purse counts the unspent coins the wallet holds.
func (w *Wallet) Purse() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.purse)
}

// FreshPseudonym reserves the next never-used pseudonym index. The
// reservation is recorded before it is returned, so an index is never
// handed out twice, not even by a reopened wallet.
func (w *Wallet) FreshPseudonym() (uint32, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], w.next+1)
	if err := w.store.Put(keyNext, b[:]); err != nil {
		return 0, err
	}
	w.next++
	return w.next - 1, nil
}

// Register proves pseudonym idx to the provider: challenge, the card's
// proof of the signing key, registration.
func (w *Wallet) Register(idx uint32) error {
	ps, err := w.card.Pseudonym(idx)
	if err != nil {
		return err
	}
	nonce, err := w.cfg.Party.Challenge()
	if err != nil {
		return err
	}
	proof, err := w.card.Prove(idx, provider.RegisterContext(nonce))
	if err != nil {
		return err
	}
	return w.cfg.Party.Register(ps.SignPublic(w.cfg.Group), ps.EncPublic(w.cfg.Group), proof, nonce)
}

// registerFresh reserves a fresh pseudonym and registers it.
func (w *Wallet) registerFresh() (uint32, error) {
	idx, err := w.FreshPseudonym()
	if err != nil {
		return 0, err
	}
	return idx, w.Register(idx)
}

// NewPseudonym registers a fresh pseudonym and makes it the current one.
func (w *Wallet) NewPseudonym() (uint32, error) {
	idx, err := w.registerFresh()
	if err == nil {
		w.curMu.Lock()
		w.cur, w.hasCur = idx, true
		w.curMu.Unlock()
	}
	return idx, err
}

// Current returns the current pseudonym, registering a fresh one on
// first use: the pseudonym a user who does not rotate buys under.
func (w *Wallet) Current() (uint32, error) {
	w.curMu.Lock()
	defer w.curMu.Unlock()
	if !w.hasCur {
		idx, err := w.registerFresh()
		if err != nil {
			return 0, err
		}
		w.cur, w.hasCur = idx, true
	}
	return w.cur, nil
}

// Buy purchases id at price under the registered pseudonym idx and keeps
// the licence. It pays with purse coins first and withdraws only the
// shortfall; see the package comment for what happens to them on failure.
// A refusal that shows coins already spent drops them and tries again,
// until as many coins as the purse held when the buy began have gone.
func (w *Wallet) Buy(id license.ContentID, price int, idx uint32) (*license.Personalized, error) {
	ps, err := w.card.Pseudonym(idx)
	if err != nil {
		return nil, err
	}
	suspect := w.Purse()
	for {
		coins, err := w.take(price)
		if err != nil {
			return nil, err
		}
		lic, err := w.cfg.Party.Purchase(id, ps.SignPublic(w.cfg.Group), ps.EncPublic(w.cfg.Group), coins)
		if err != nil {
			spent := min(spentPrefix(err), len(coins))
			if serr := w.settle(coins, spent); serr != nil {
				return nil, errors.Join(err, serr)
			}
			if spent == 0 || spent > suspect {
				return nil, err
			}
			suspect -= spent
			continue
		}
		b := new(kvstore.Batch).Put(licKey(lic.Serial), record(idx, lic))
		for _, c := range coins {
			b.Delete(coinKey(c))
		}
		return lic, w.store.Apply(b)
	}
}

// take removes n coins from the purse for one purchase, withdrawing what
// the purse lacks. Withdrawn coins are on record before take returns.
func (w *Wallet) take(n int) ([]*payment.Coin, error) {
	w.mu.Lock()
	k := min(max(n, 0), len(w.purse))
	coins := append([]*payment.Coin(nil), w.purse[len(w.purse)-k:]...)
	w.purse = w.purse[:len(w.purse)-k]
	w.mu.Unlock()
	if k == n {
		return coins, nil
	}
	// An error may come with coins: those of the lists already paid for.
	fresh, err := w.cfg.Party.WithdrawCoins(w.account, n-k)
	var b kvstore.Batch
	for _, c := range fresh {
		b.Put(coinKey(c), c.Sig)
	}
	coins = append(coins, fresh...)
	if err != nil {
		err = fmt.Errorf("withdraw: %w", err)
	}
	if aerr := w.store.Apply(&b); aerr != nil {
		err = errors.Join(err, aerr)
	}
	if err != nil {
		w.settle(coins, 0) // no coin is spent: nothing to delete, no error
		return nil, err
	}
	return coins, nil
}

// settle returns a failed purchase's coins: the first spent of them
// leave the purse for good, the rest go back into it.
func (w *Wallet) settle(coins []*payment.Coin, spent int) error {
	var b kvstore.Batch
	for _, c := range coins[:spent] {
		b.Delete(coinKey(c))
	}
	w.mu.Lock()
	w.purse = append(w.purse, coins[spent:]...)
	w.mu.Unlock()
	return w.store.Apply(&b)
}

// spentPrefix is how many of a refused purchase's coins the refusal shows
// spent. The provider deposits coins in order and stops at the first the
// bank refuses, with "provider: coin i: payment: coin already spent"; the
// coins before it went to this purchase, so coins 0..i are all spent. Any
// other refusal spent none.
func spentPrefix(err error) int {
	msg := err.Error()
	at := strings.Index(msg, "provider: coin ")
	if at < 0 || !strings.Contains(msg, payment.ErrDoubleSpend.Error()) {
		return 0
	}
	var i int
	if _, err := fmt.Sscanf(msg[at:], "provider: coin %d:", &i); err != nil || i < 0 {
		return 0
	}
	return i + 1
}

// record encodes a licence record: the pseudonym index, then the licence
// (absent once exchanged).
func record(idx uint32, lic *license.Personalized) []byte {
	b := binary.BigEndian.AppendUint32(nil, idx)
	if lic != nil {
		b = append(b, lic.Marshal()...)
	}
	return b
}

// PseudonymFor returns the pseudonym index a licence the wallet bought,
// redeemed or exchanged is bound to.
func (w *Wallet) PseudonymFor(serial license.Serial) (uint32, error) {
	raw, ok := w.store.Get(licKey(serial))
	if !ok || len(raw) < 4 {
		return 0, errors.New("wallet: license not in wallet")
	}
	return binary.BigEndian.Uint32(raw), nil
}

// Licenses returns the held (not exchanged) licences whose serial starts
// with the hex prefix ("" for all), ordered by serial.
func (w *Wallet) Licenses(prefix string) []*license.Personalized {
	var lics []*license.Personalized
	w.store.PrefixScan([]byte(prefixLic+prefix), func(_, v []byte) bool {
		if len(v) > 4 {
			if lic, err := license.UnmarshalPersonalized(v[4:]); err == nil {
				lics = append(lics, lic)
			}
		}
		return true
	})
	sort.Slice(lics, func(i, j int) bool { return lics[i].Serial.String() < lics[j].Serial.String() })
	return lics
}

// Find returns the held licence whose serial starts with the hex prefix.
func (w *Wallet) Find(prefix string) (*license.Personalized, error) {
	if lics := w.Licenses(prefix); len(lics) > 0 {
		return lics[0], nil
	}
	return nil, fmt.Errorf("wallet: no license matches %q", prefix)
}

// Exchange retires a held licence for an anonymous bearer licence and
// returns it with the blinded bytes the provider signed — what the
// provider's journal hashes, the ground truth of linkage experiments.
func (w *Wallet) Exchange(lic *license.Personalized) (*license.Anonymous, []byte, error) {
	idx, err := w.PseudonymFor(lic.Serial)
	if err != nil {
		return nil, nil, err
	}
	denomPub, denomID, err := w.cfg.Party.Denomination(lic.ContentID)
	if err != nil {
		return nil, nil, err
	}
	serial, err := license.NewSerial()
	if err != nil {
		return nil, nil, err
	}
	msg := license.AnonymousSigningBytes(serial, denomID)
	var blinded []byte
	var st *rsablind.State
	if w.cfg.Linkable {
		blinded = rsablind.Prehash(denomPub, msg)
	} else if blinded, st, err = rsablind.Blind(denomPub, msg, rand.Reader); err != nil {
		return nil, nil, err
	}
	nonce, err := w.cfg.Party.Challenge()
	if err != nil {
		return nil, nil, err
	}
	proof, err := w.card.Prove(idx, provider.ExchangeContext(nonce, lic.Serial))
	if err != nil {
		return nil, nil, err
	}
	sig, err := w.cfg.Party.Exchange(lic, proof, nonce, blinded)
	if err != nil {
		return nil, nil, err
	}
	if w.cfg.Linkable {
		err = rsablind.Verify(denomPub, msg, sig) // a plain signature over msg
	} else {
		sig, err = rsablind.Unblind(denomPub, st, sig)
	}
	if err != nil {
		return nil, nil, err
	}
	anon := &license.Anonymous{Serial: serial, Denom: denomID, Sig: sig}
	return anon, blinded, w.store.Put(licKey(lic.Serial), record(idx, nil))
}

// Redeem turns a bearer licence into a personalized one under a fresh
// pseudonym and keeps it.
func (w *Wallet) Redeem(anon *license.Anonymous) (*license.Personalized, error) {
	idx, err := w.registerFresh()
	if err != nil {
		return nil, err
	}
	ps, err := w.card.Pseudonym(idx)
	if err != nil {
		return nil, err
	}
	lic, err := w.cfg.Party.Redeem(anon, ps.SignPublic(w.cfg.Group), ps.EncPublic(w.cfg.Group))
	if err != nil {
		return nil, err
	}
	return lic, w.store.Put(licKey(lic.Serial), record(idx, lic))
}

// Play plays a licence the wallet holds on a compliant device, the card
// answering the device's challenge for the licence's pseudonym.
func (w *Wallet) Play(dev *device.Device, lic *license.Personalized, content io.Reader, out io.Writer) error {
	idx, err := w.PseudonymFor(lic.Serial)
	if err != nil {
		return err
	}
	return dev.Play(w.card, idx, lic, content, out)
}
