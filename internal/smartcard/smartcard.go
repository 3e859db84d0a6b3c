// Package smartcard simulates the user-side tamper-resistant token of the
// P2DRM architecture.
//
// The 2004 paper assumes each user owns a smartcard that stores key
// material and performs the small number of private-key operations the
// protocols need; everything else runs on untrusted hosts. This simulation
// preserves the protocol-visible properties:
//
//   - The card holds ONE 32-byte master seed and derives every pseudonym
//     from it (HKDF), so pseudonyms are unlinkable to outsiders yet cost
//     the card no storage.
//   - Private scalars never leave the card; callers get proofs,
//     signatures and unwrapped content keys, never keys used to make them.
//   - The host pays the card's exponentiations in software, and a card
//     in a long-lived process pays the group's fixed-base rate: the
//     group builds its table once the process has computed enough g^x
//     (schnorr.Group.ExpG), with no call from here.
//
// The seed's custody is the wallet's (internal/wallet keeps it in its
// store); the card has no export path of its own.
package smartcard

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"

	"p2drm/internal/cryptox/kdf"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/license"
	"p2drm/internal/rel"
)

// Pseudonym is a derived identity: independent signing and encryption key
// pairs. The public halves are registered with the provider; the private
// halves stay on the card.
type Pseudonym struct {
	Index uint32
	sign  *schnorr.PrivateKey
	enc   *schnorr.PrivateKey
}

// SignPublic returns the encoded signing public key.
func (p *Pseudonym) SignPublic(g *schnorr.Group) []byte { return g.EncodeElement(p.sign.Y) }

// EncPublic returns the encoded encryption public key.
func (p *Pseudonym) EncPublic(g *schnorr.Group) []byte { return g.EncodeElement(p.enc.Y) }

// SignY returns the signing public key element.
func (p *Pseudonym) SignY() *big.Int { return p.sign.Y }

// EncY returns the encryption public key element.
func (p *Pseudonym) EncY() *big.Int { return p.enc.Y }

// Card is a simulated smartcard.
type Card struct {
	group *schnorr.Group
	seed  [kdf.SeedLen]byte

	mu    sync.Mutex
	cache map[uint32]*Pseudonym
}

// New creates a card over group with the given master seed.
func New(g *schnorr.Group, seed [kdf.SeedLen]byte) *Card {
	return &Card{group: g, seed: seed, cache: make(map[uint32]*Pseudonym)}
}

// NewRandom creates a card with a fresh random seed.
func NewRandom(g *schnorr.Group) (*Card, error) {
	var seed [kdf.SeedLen]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("smartcard: seed: %w", err)
	}
	return New(g, seed), nil
}

// Group returns the card's group.
func (c *Card) Group() *schnorr.Group { return c.group }

// Pseudonym derives (or returns the cached) pseudonym at index.
func (c *Card) Pseudonym(index uint32) (*Pseudonym, error) {
	c.mu.Lock()
	if p, ok := c.cache[index]; ok {
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()

	material, err := kdf.PseudonymSecret(c.seed[:], index, 64)
	if err != nil {
		return nil, err
	}
	sign, err := schnorr.NewPrivateKey(c.group, material[:32])
	if err != nil {
		return nil, err
	}
	enc, err := schnorr.NewPrivateKey(c.group, material[32:])
	if err != nil {
		return nil, err
	}
	p := &Pseudonym{Index: index, sign: sign, enc: enc}

	c.mu.Lock()
	c.cache[index] = p
	c.mu.Unlock()
	return p, nil
}

// Prove produces a proof of knowledge of the pseudonym's signing key,
// bound to context (typically a provider nonce). Proofs are generated
// with crypto/rand, so when the group has a nonce pool enabled
// (schnorr.Group.EnableNoncePool) the commitment comes precomputed.
func (c *Card) Prove(index uint32, context []byte) (*schnorr.Proof, error) {
	p, err := c.Pseudonym(index)
	if err != nil {
		return nil, err
	}
	return p.sign.Prove(context, rand.Reader)
}

// Sign signs msg under the pseudonym's signing key (used for star-license
// issuance and transfer receipts).
func (c *Card) Sign(index uint32, msg []byte) (*schnorr.Signature, error) {
	p, err := c.Pseudonym(index)
	if err != nil {
		return nil, err
	}
	return p.sign.Sign(msg, rand.Reader)
}

// UnwrapContentKey opens a license key wrap addressed to the pseudonym.
// The content key leaves the card only toward the compliant device's
// decryption pipeline; the pseudonym private scalar does not.
func (c *Card) UnwrapContentKey(index uint32, kw license.KeyWrap, label []byte) ([]byte, error) {
	p, err := c.Pseudonym(index)
	if err != nil {
		return nil, err
	}
	key, err := kw.Unwrap(c.group, p.enc.X, label)
	if err != nil {
		return nil, fmt.Errorf("smartcard: unwrap: %w", err)
	}
	return key, nil
}

// IssueStarLicense creates a star license: unwraps the parent's content
// key, re-wraps it to the delegate, and signs the delegation with the
// holder pseudonym. The card refuses restrictions that widen the parent's
// rights or parents that forbid delegation — the card is trusted hardware
// and enforces policy even against its owner.
func (c *Card) IssueStarLicense(holderIndex uint32, parent *license.Personalized, restriction *rel.Rights, delegateSign, delegateEnc []byte, now time.Time) (*license.Star, error) {
	if parent == nil {
		return nil, errors.New("smartcard: nil parent license")
	}
	if restriction == nil {
		return nil, errors.New("smartcard: nil restriction")
	}
	if err := restriction.Validate(); err != nil {
		return nil, fmt.Errorf("smartcard: restriction: %w", err)
	}
	if !parent.Rights.DelegationAllowed {
		return nil, errors.New("smartcard: parent license forbids delegation")
	}
	if !restriction.Narrower(parent.Rights) {
		return nil, errors.New("smartcard: restriction widens parent rights")
	}
	p, err := c.Pseudonym(holderIndex)
	if err != nil {
		return nil, err
	}
	// The card only delegates licenses it actually holds.
	if string(parent.HolderSign) != string(c.group.EncodeElement(p.sign.Y)) {
		return nil, errors.New("smartcard: parent license is not bound to this pseudonym")
	}
	contentKey, err := c.UnwrapContentKey(holderIndex, parent.KeyWrap,
		license.WrapLabelPersonalized(parent.Serial, parent.ContentID))
	if err != nil {
		return nil, err
	}
	delegateY := new(big.Int).SetBytes(delegateEnc)
	kw, err := license.WrapKey(c.group, delegateY, contentKey,
		license.WrapLabelStar(parent.Serial, parent.ContentID))
	if err != nil {
		return nil, fmt.Errorf("smartcard: rewrap: %w", err)
	}
	s := &license.Star{
		ParentSerial: parent.Serial,
		ContentID:    parent.ContentID,
		Restriction:  restriction,
		DelegateSign: append([]byte(nil), delegateSign...),
		DelegateEnc:  append([]byte(nil), delegateEnc...),
		KeyWrap:      kw,
		IssuedAt:     now.UTC(),
	}
	sig, err := c.Sign(holderIndex, s.SigningBytes())
	if err != nil {
		return nil, err
	}
	s.HolderSig = sig.Bytes(c.group)
	return s, nil
}
