// Package core assembles the P2DRM parties into the end-to-end protocols
// of the 2004 paper. It is the library's main entry point: examples, the
// CLI, the HTTP layer and the benchmark harness all drive this API.
//
// The protocols, each a method on System:
//
//	Purchase     anonymous purchase: fresh pseudonym → register →
//	             withdraw blind cash → buy → personalized license.
//	Transfer     unlinkable transfer: holder exchanges the license for a
//	             blind-signed anonymous license, hands the bearer token to
//	             the recipient out of band, recipient redeems under a
//	             fresh pseudonym. The provider cannot link the two ends.
//	Play         compliant playback on a device.
//	Delegate     star license issuance (user-attributed rights).
//
// System wires an in-process provider and bank; the httpapi package
// exposes the same provider over HTTP for multi-process deployments.
package core

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/device"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
	"p2drm/internal/smartcard"
)

// Options configures a System.
type Options struct {
	// Group selects the discrete-log group (default Group2048; tests and
	// benches use Group768 for speed).
	Group *schnorr.Group
	// RSABits sizes the provider and bank keys (default 2048).
	RSABits int
	// DenomKeyBits sizes per-content blind-signature keys (default RSABits).
	DenomKeyBits int
	// StateDir persists provider and bank state in one store under
	// StateDir/provider; empty means in-memory.
	StateDir string
	// Clock injects time for deterministic tests.
	Clock func() time.Time
	// DisableBlinding switches Transfer to the no-blinding ablation:
	// anonymous serials are sent to the provider in clear, making
	// exchange↔redeem linkable. Never use outside experiments.
	DisableBlinding bool
}

// System is an assembled P2DRM deployment.
type System struct {
	Group    *schnorr.Group
	Provider *provider.Provider
	Bank     *payment.Bank
	opts     Options

	mu    sync.Mutex
	users map[string]*User
}

// User is a client-side principal: a smartcard plus local state. The name
// exists ONLY locally (ground truth for experiments); it never crosses the
// wire to the provider.
type User struct {
	Name        string
	Card        *smartcard.Card
	BankAccount string

	mu            sync.Mutex
	nextPseudonym uint32
	pseudonymOf   map[license.Serial]uint32
}

// NewSystem builds a provider + bank pair with fresh keys.
func NewSystem(opts Options) (*System, error) {
	if opts.Group == nil {
		opts.Group = schnorr.Group2048()
	}
	if opts.RSABits == 0 {
		opts.RSABits = 2048
	}
	if opts.DenomKeyBits == 0 {
		opts.DenomKeyBits = opts.RSABits
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	bankKey, err := rsa.GenerateKey(rand.Reader, opts.RSABits)
	if err != nil {
		return nil, fmt.Errorf("core: bank key: %w", err)
	}
	provKey, err := rsa.GenerateKey(rand.Reader, opts.RSABits)
	if err != nil {
		return nil, fmt.Errorf("core: provider key: %w", err)
	}
	// One store for the bank's spent ledger and the provider's records,
	// as p2drmd runs them: their key prefixes are disjoint.
	dir := ""
	if opts.StateDir != "" {
		dir = opts.StateDir + "/provider"
	}
	store, err := kvstore.Open(dir)
	if err != nil {
		return nil, err
	}
	bank, err := payment.NewBank(bankKey, store)
	if err != nil {
		return nil, err
	}
	if err := bank.CreateAccount("provider", 0); err != nil {
		return nil, err
	}
	prov, err := provider.New(provider.Config{
		Group:        opts.Group,
		SignerKey:    provKey,
		DenomKeyBits: opts.DenomKeyBits,
		Store:        store,
		Bank:         bank,
		BankAccount:  "provider",
		Clock:        opts.Clock,
	})
	if err != nil {
		return nil, err
	}
	return &System{
		Group:    opts.Group,
		Provider: prov,
		Bank:     bank,
		opts:     opts,
		users:    make(map[string]*User),
	}, nil
}

// NewUser creates a local user with a fresh card and a funded bank
// account.
func (s *System) NewUser(name string, funds int64) (*User, error) {
	card, err := smartcard.NewRandom(s.Group)
	if err != nil {
		return nil, err
	}
	if err := s.Bank.CreateAccount(name, funds); err != nil {
		return nil, err
	}
	u := &User{Name: name, Card: card, BankAccount: name, pseudonymOf: make(map[license.Serial]uint32)}
	s.mu.Lock()
	s.users[name] = u
	s.mu.Unlock()
	return u, nil
}

// FreshPseudonym reserves the next unused pseudonym index.
func (u *User) FreshPseudonym() uint32 {
	u.mu.Lock()
	defer u.mu.Unlock()
	idx := u.nextPseudonym
	u.nextPseudonym++
	return idx
}

// register runs the pseudonym registration protocol.
func (s *System) register(u *User, index uint32) (signPub, encPub []byte, err error) {
	ps, err := u.Card.Pseudonym(index)
	if err != nil {
		return nil, nil, err
	}
	nonce, err := s.Provider.Challenge(context.Background())
	if err != nil {
		return nil, nil, err
	}
	proof, err := u.Card.Prove(index, provider.RegisterContext(nonce))
	if err != nil {
		return nil, nil, err
	}
	signPub = ps.SignPublic(s.Group)
	encPub = ps.EncPublic(s.Group)
	if err := s.Provider.Register(context.Background(), signPub, encPub, proof, nonce); err != nil {
		return nil, nil, err
	}
	return signPub, encPub, nil
}

// Purchase runs the anonymous purchase protocol under a fresh pseudonym.
func (s *System) Purchase(u *User, contentID license.ContentID) (*license.Personalized, error) {
	return s.PurchaseWithPseudonym(u, contentID, u.FreshPseudonym())
}

// PurchaseWithPseudonym purchases under a caller-chosen pseudonym index.
// Experiments use this to model pseudonym REUSE (the F1 x-axis): reusing
// an index lets the provider link those purchases.
func (s *System) PurchaseWithPseudonym(u *User, contentID license.ContentID, index uint32) (*license.Personalized, error) {
	item, err := s.Provider.Item(contentID)
	if err != nil {
		return nil, err
	}
	signPub, encPub, err := s.register(u, index)
	if err != nil {
		return nil, err
	}
	coins, err := s.Bank.WithdrawCoins(u.BankAccount, int(item.PriceCredits))
	if err != nil {
		return nil, err
	}
	lic, err := s.Provider.Purchase(context.Background(), provider.PurchaseRequest{
		ContentID: contentID,
		SignPub:   signPub,
		EncPub:    encPub,
		Coins:     coins,
	})
	if err != nil {
		return nil, err
	}
	// Remember which pseudonym the license binds to, for later use.
	u.mu.Lock()
	u.pseudonymOf[lic.Serial] = index
	u.mu.Unlock()
	return lic, nil
}

// PseudonymFor returns the pseudonym index a held license binds to.
func (u *User) PseudonymFor(serial license.Serial) (uint32, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	idx, ok := u.pseudonymOf[serial]
	if !ok {
		return 0, errors.New("core: license not in wallet")
	}
	return idx, nil
}

// Exchange retires a held license for an anonymous bearer license.
func (s *System) Exchange(u *User, lic *license.Personalized) (*license.Anonymous, error) {
	idx, err := u.PseudonymFor(lic.Serial)
	if err != nil {
		return nil, err
	}
	denomPub, denomID, err := s.Provider.DenomPublic(lic.ContentID)
	if err != nil {
		return nil, err
	}
	serial, err := license.NewSerial()
	if err != nil {
		return nil, err
	}
	msg := license.AnonymousSigningBytes(serial, denomID)

	var blinded []byte
	var st *rsablind.State
	if s.opts.DisableBlinding {
		// Ablation A1: the provider sees (the deterministic hash of) the
		// serial it signs, so exchange and redeem become linkable.
		blinded = rsablind.Prehash(denomPub, msg)
	} else {
		blinded, st, err = rsablind.Blind(denomPub, msg, rand.Reader)
		if err != nil {
			return nil, err
		}
	}
	nonce, err := s.Provider.Challenge(context.Background())
	if err != nil {
		return nil, err
	}
	proof, err := u.Card.Prove(idx, provider.ExchangeContext(nonce, lic.Serial))
	if err != nil {
		return nil, err
	}
	blindSig, err := s.Provider.Exchange(context.Background(), lic, proof, nonce, blinded)
	if err != nil {
		return nil, err
	}
	var sig []byte
	if s.opts.DisableBlinding {
		sig = blindSig // raw FDH signature over msg
		if err := rsablind.Verify(denomPub, msg, sig); err != nil {
			return nil, err
		}
	} else {
		sig, err = rsablind.Unblind(denomPub, st, blindSig)
		if err != nil {
			return nil, err
		}
	}
	return &license.Anonymous{Serial: serial, Denom: denomID, Sig: sig}, nil
}

// Redeem turns a received anonymous license into a personalized license
// under a fresh pseudonym of the recipient.
func (s *System) Redeem(u *User, anon *license.Anonymous) (*license.Personalized, error) {
	idx := u.FreshPseudonym()
	signPub, encPub, err := s.register(u, idx)
	if err != nil {
		return nil, err
	}
	lic, err := s.Provider.Redeem(context.Background(), anon, signPub, encPub)
	if err != nil {
		return nil, err
	}
	u.mu.Lock()
	u.pseudonymOf[lic.Serial] = idx
	u.mu.Unlock()
	return lic, nil
}

// Transfer runs the full anonymous transfer: from exchanges, to redeems.
// The bearer token moves between users out of band (here: a function
// call); the provider sees two unlinkable interactions.
func (s *System) Transfer(from *User, lic *license.Personalized, to *User) (*license.Personalized, error) {
	anon, err := s.Exchange(from, lic)
	if err != nil {
		return nil, err
	}
	return s.Redeem(to, anon)
}

// NewDevice manufactures a certified compliant device wired to this
// system's trust anchors, with the current revocation filter installed.
func (s *System) NewDevice(id, class, region string) (*device.Device, *device.Certificate, error) {
	key, err := schnorr.GenerateKey(s.Group, rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	st, err := kvstore.Open("")
	if err != nil {
		return nil, nil, err
	}
	dev, err := device.New(device.Config{
		ID: id, Class: class, Region: region,
		Group:       s.Group,
		ProviderPub: s.Provider.Public(),
		State:       st,
		Clock:       s.opts.Clock,
		IdentityKey: key,
	})
	if err != nil {
		return nil, nil, err
	}
	cert, err := s.Provider.CertifyDevice(id, class, key.Y)
	if err != nil {
		return nil, nil, err
	}
	if err := s.RefreshDevice(dev); err != nil {
		return nil, nil, err
	}
	return dev, cert, nil
}

// RefreshDevice installs the provider's current revocation filter.
func (s *System) RefreshDevice(dev *device.Device) error {
	sf, err := s.Provider.RevocationFilter()
	if err != nil {
		return err
	}
	return dev.InstallRevocationFilter(sf)
}

// Play fetches the encrypted content and plays the license on a device.
func (s *System) Play(u *User, dev *device.Device, lic *license.Personalized, out io.Writer) error {
	idx, err := u.PseudonymFor(lic.Serial)
	if err != nil {
		return err
	}
	item, err := s.Provider.Item(lic.ContentID)
	if err != nil {
		return err
	}
	return dev.Play(u.Card, idx, lic, newByteReader(item.Encrypted), out)
}

// Delegate issues a star license from a held license to another user's
// fresh pseudonym and returns it with the delegate index used.
func (s *System) Delegate(from *User, lic *license.Personalized, to *User, restriction *rel.Rights) (*license.Star, uint32, error) {
	idx, err := from.PseudonymFor(lic.Serial)
	if err != nil {
		return nil, 0, err
	}
	dIdx := to.FreshPseudonym()
	dp, err := to.Card.Pseudonym(dIdx)
	if err != nil {
		return nil, 0, err
	}
	star, err := from.Card.IssueStarLicense(idx, lic, restriction,
		dp.SignPublic(s.Group), dp.EncPublic(s.Group), s.opts.Clock())
	if err != nil {
		return nil, 0, err
	}
	return star, dIdx, nil
}

// PlayStar plays a delegated license on a device.
func (s *System) PlayStar(to *User, dIdx uint32, dev *device.Device, parent *license.Personalized, star *license.Star, out io.Writer) error {
	item, err := s.Provider.Item(parent.ContentID)
	if err != nil {
		return err
	}
	return dev.PlayStar(to.Card, dIdx, parent, star, newByteReader(item.Encrypted), out)
}

// newByteReader avoids importing bytes just for a reader.
func newByteReader(b []byte) io.Reader { return &byteReader{b: b} }

type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}
