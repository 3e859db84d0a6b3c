// Package core assembles the P2DRM parties in one process and in memory:
// a provider, a bank, compliant devices, and users, each an in-memory
// wallet (internal/wallet, which holds the client half of every protocol)
// that reaches the provider and bank through wallet.Local. The examples,
// the workload generator and the root integration tests drive this API.
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
// cmd/p2drmd wires the same provider and bank over its durable store and
// serves them through the httpapi package; the p2drm CLI is a wallet in a
// directory speaking to it over HTTP.
package core

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"io"
	"time"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/device"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
	"p2drm/internal/wallet"
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
	// Clock injects time for deterministic tests.
	Clock func() time.Time
	// DisableBlinding switches Transfer to the no-blinding ablation
	// (wallet.Config.Linkable): anonymous serials are sent to the
	// provider in clear, making exchange↔redeem linkable. Never use
	// outside experiments.
	DisableBlinding bool
}

// System is an assembled P2DRM deployment.
type System struct {
	Group    *schnorr.Group
	Provider *provider.Provider
	Bank     *payment.Bank
	opts     Options
}

// User is a client-side principal: a named in-memory wallet drawing on
// the bank account of the same name. The name exists ONLY locally
// (ground truth for experiments); it never crosses the wire to the
// provider.
type User struct {
	Name string
	*wallet.Wallet
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
	store, err := kvstore.Open("")
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
	}, nil
}

// NewUser creates a local user with a fresh card and a funded bank
// account.
func (s *System) NewUser(name string, funds int64) (*User, error) {
	if err := s.Bank.CreateAccount(name, funds); err != nil {
		return nil, err
	}
	w, err := wallet.Create(wallet.Config{
		Group:    s.Group,
		Party:    wallet.Local(s.Provider, s.Bank),
		Linkable: s.opts.DisableBlinding,
	}, name, nil)
	if err != nil {
		return nil, err
	}
	return &User{Name: name, Wallet: w}, nil
}

// Purchase runs the anonymous purchase protocol under a fresh pseudonym.
func (s *System) Purchase(u *User, contentID license.ContentID) (*license.Personalized, error) {
	idx, err := u.FreshPseudonym()
	if err != nil {
		return nil, err
	}
	return s.PurchaseWithPseudonym(u, contentID, idx)
}

// PurchaseWithPseudonym registers a caller-chosen pseudonym index and
// purchases under it. Experiments use this to model pseudonym REUSE (the
// F1 x-axis): reusing an index lets the provider link those purchases.
func (s *System) PurchaseWithPseudonym(u *User, contentID license.ContentID, index uint32) (*license.Personalized, error) {
	item, err := s.Provider.Item(contentID)
	if err != nil {
		return nil, err
	}
	if err := u.Register(index); err != nil {
		return nil, err
	}
	return u.Buy(contentID, int(item.PriceCredits), index)
}

// Exchange retires a held license for an anonymous bearer license.
func (s *System) Exchange(u *User, lic *license.Personalized) (*license.Anonymous, error) {
	anon, _, err := u.Wallet.Exchange(lic)
	return anon, err
}

// Redeem turns a received anonymous license into a personalized license
// under a fresh pseudonym of the recipient.
func (s *System) Redeem(u *User, anon *license.Anonymous) (*license.Personalized, error) {
	return u.Wallet.Redeem(anon)
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
	item, err := s.Provider.Item(lic.ContentID)
	if err != nil {
		return err
	}
	return u.Wallet.Play(dev, lic, bytes.NewReader(item.Encrypted), out)
}

// Delegate issues a star license from a held license to another user's
// fresh pseudonym and returns it with the delegate index used.
func (s *System) Delegate(from *User, lic *license.Personalized, to *User, restriction *rel.Rights) (*license.Star, uint32, error) {
	return from.Wallet.Delegate(lic, to.Wallet, restriction, s.opts.Clock())
}

// PlayStar plays a delegated license on a device.
func (s *System) PlayStar(to *User, dIdx uint32, dev *device.Device, parent *license.Personalized, star *license.Star, out io.Writer) error {
	item, err := s.Provider.Item(parent.ContentID)
	if err != nil {
		return err
	}
	return dev.PlayStar(to.Card(), dIdx, parent, star, bytes.NewReader(item.Encrypted), out)
}
