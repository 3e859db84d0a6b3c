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
//   - Cards are slow. A configurable per-modexp delay models mid-2000s
//     card silicon, which experiment T5 sweeps to show where the protocol
//     budget goes on constrained hardware.
package smartcard

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"p2drm/internal/cryptox/envelope"
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

// Stats counts card operations, the unit of cost on real card silicon.
type Stats struct {
	ModExps    int64
	Signatures int64
	Proofs     int64
	Unwraps    int64
}

// Card is a simulated smartcard.
type Card struct {
	group *schnorr.Group
	seed  [kdf.SeedLen]byte

	mu    sync.Mutex
	cache map[uint32]*Pseudonym

	modExps    atomic.Int64
	signatures atomic.Int64
	proofs     atomic.Int64
	unwraps    atomic.Int64
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

// Stats returns a snapshot of operation counters.
func (c *Card) Stats() Stats {
	return Stats{
		ModExps:    c.modExps.Load(),
		Signatures: c.signatures.Load(),
		Proofs:     c.proofs.Load(),
		Unwraps:    c.unwraps.Load(),
	}
}

// chargeExp accounts for n modular exponentiations.
func (c *Card) chargeExp(n int64) {
	c.modExps.Add(n)
}

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
	c.chargeExp(2) // two g^x to derive the public halves
	p := &Pseudonym{Index: index, sign: sign, enc: enc}

	c.mu.Lock()
	c.cache[index] = p
	c.mu.Unlock()
	return p, nil
}

// Prove produces a proof of knowledge of the pseudonym's signing key,
// bound to context (typically a provider nonce). Proofs are generated
// with crypto/rand, so when the group has a nonce pool enabled
// (schnorr.Group.EnableNoncePool) the commitment comes precomputed —
// the card model charges the exponentiation either way, since real
// card hardware would still pay it.
func (c *Card) Prove(index uint32, context []byte) (*schnorr.Proof, error) {
	p, err := c.Pseudonym(index)
	if err != nil {
		return nil, err
	}
	c.chargeExp(1) // commitment g^k
	c.proofs.Add(1)
	return p.sign.Prove(context, rand.Reader)
}

// Sign signs msg under the pseudonym's signing key (used for star-license
// issuance and transfer receipts).
func (c *Card) Sign(index uint32, msg []byte) (*schnorr.Signature, error) {
	p, err := c.Pseudonym(index)
	if err != nil {
		return nil, err
	}
	c.chargeExp(1)
	c.signatures.Add(1)
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
	c.chargeExp(2) // subgroup check + shared-secret exponentiation
	c.unwraps.Add(1)
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
	c.chargeExp(2) // KEM encap
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

// zeroize wipes the seed; after Destroy the card mints no new pseudonyms.
func (c *Card) Destroy() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.seed {
		c.seed[i] = 0
	}
	c.cache = make(map[uint32]*Pseudonym)
}

// SealedBackup exports the seed encrypted under a user passphrase-derived
// key: the paper's device-upgrade path (move your identity to a new card)
// without giving the provider a linkage hook.
func (c *Card) SealedBackup(passphrase []byte) ([]byte, error) {
	key, err := kdf.Key(passphrase, []byte("p2drm/card-backup/v1"), nil, 32)
	if err != nil {
		return nil, err
	}
	return envelope.Seal(key, c.seed[:], []byte("card-backup"))
}

// RestoreCard rebuilds a card from a sealed backup.
func RestoreCard(g *schnorr.Group, backup, passphrase []byte) (*Card, error) {
	key, err := kdf.Key(passphrase, []byte("p2drm/card-backup/v1"), nil, 32)
	if err != nil {
		return nil, err
	}
	seedBytes, err := envelope.Open(key, backup, []byte("card-backup"))
	if err != nil {
		return nil, fmt.Errorf("smartcard: restore: %w", err)
	}
	if len(seedBytes) != kdf.SeedLen {
		return nil, errors.New("smartcard: corrupt backup")
	}
	var seed [kdf.SeedLen]byte
	copy(seed[:], seedBytes)
	return New(g, seed), nil
}
