// Package device implements the compliant rendering device of the P2DRM
// architecture: the component trusted by the content provider to enforce
// licenses even against the device's own owner.
//
// The enforcement pipeline for every playback is:
//
//  1. verify the provider signature on the license,
//  2. check the license serial against the freshest installed revocation
//     filter (fail closed: no filter, no playback),
//  3. challenge the user's smartcard to prove it owns the license
//     pseudonym (fresh nonce, so recorded proofs don't replay),
//  4. evaluate the license rights against device facts (time, class,
//     region, persisted use counters; no device is in a domain, so a
//     "require domain" license plays nowhere),
//  5. persist the counter increment BEFORE any plaintext is produced
//     (a crash can cost the user a play, never gain one), and
//  6. unwrap the content key through the card and decrypt.
//
// Devices also carry a compliance certificate issued by the provider,
// binding the device's identity key and class.
package device

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"strconv"
	"sync"
	"time"

	"p2drm/internal/bloom"
	"p2drm/internal/cryptox/envelope"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/rel"
	"p2drm/internal/revocation"
	"p2drm/internal/smartcard"
)

// Errors distinguished by callers and tests.
var (
	ErrNoRevocationFilter = errors.New("device: no revocation filter installed (fail closed)")
	ErrRevoked            = errors.New("device: license serial is revoked")
	ErrChallengeFailed    = errors.New("device: smartcard challenge failed")
	ErrDenied             = errors.New("device: rights denied")
	ErrStateCorrupt       = errors.New("device: secure state corrupt")
)

// Config configures a device.
type Config struct {
	ID     string
	Class  string // e.g. "audio", "video", "ebook"
	Region string
	Group  *schnorr.Group
	// ProviderPub anchors trust in licenses and revocation artifacts.
	ProviderPub *rsa.PublicKey
	// State persists secure counters; use an in-memory store for tests.
	State *kvstore.Store
	// Clock supplies the device's notion of time (defaults to time.Now).
	Clock func() time.Time
	// IdentityKey is the device's certified key pair. Optional.
	IdentityKey *schnorr.PrivateKey
}

// Device is a compliant player.
type Device struct {
	cfg Config

	mu           sync.Mutex
	filter       *bloom.Filter
	filterIssued time.Time
}

// New validates the configuration and builds a device.
func New(cfg Config) (*Device, error) {
	if cfg.ID == "" || cfg.Class == "" {
		return nil, errors.New("device: ID and Class are required")
	}
	if cfg.Group == nil || cfg.ProviderPub == nil {
		return nil, errors.New("device: group and provider key are required")
	}
	if cfg.State == nil {
		return nil, errors.New("device: state store is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Device{cfg: cfg}, nil
}

// ID returns the device identifier.
func (d *Device) ID() string { return d.cfg.ID }

// Class returns the device class.
func (d *Device) Class() string { return d.cfg.Class }

// InstallRevocationFilter verifies and installs a provider-signed
// revocation filter. Filters older than the installed one are rejected so
// an attacker cannot roll the device back to a filter that predates a
// revocation. Only whole seconds of IssuedAt are signed, so only those
// are compared, and two filters cut either side of a revocation can carry
// the same second: among those the signed element count decides, and the
// one with fewer serials is the older. (A provider-side rebuild can lower
// the count, which sums additions, not distinct serials; a device that
// refuses such a filter takes the next one the provider cuts, no more
// than a minute later.)
func (d *Device) InstallRevocationFilter(sf *revocation.SignedFilter) error {
	f, err := revocation.VerifyFilter(d.cfg.ProviderPub, sf)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	offered, installed := sf.IssuedAt.Unix(), d.filterIssued.Unix()
	if d.filter != nil && (offered < installed ||
		offered == installed && f.Count() < d.filter.Count()) {
		return fmt.Errorf("device: filter rollback rejected (installed %s with %d serials, offered %s with %d)",
			d.filterIssued.Format(time.RFC3339), d.filter.Count(), sf.IssuedAt.Format(time.RFC3339), f.Count())
	}
	d.filter = f
	d.filterIssued = sf.IssuedAt
	return nil
}

// usedKey is the secure-counter key for (serial scope, action).
func usedKey(scope string, action rel.Action) []byte {
	return []byte("used:" + scope + ":" + string(action))
}

// usedCount loads a persisted counter.
func (d *Device) usedCount(scope string, action rel.Action) (int64, error) {
	v, ok := d.cfg.State.Get(usedKey(scope, action))
	if !ok {
		return 0, nil
	}
	if len(v) != 8 {
		return 0, ErrStateCorrupt
	}
	n := int64(binary.BigEndian.Uint64(v))
	if n < 0 {
		return 0, ErrStateCorrupt
	}
	return n, nil
}

// incrementUsed persists counter+1 durably.
func (d *Device) incrementUsed(scope string, action rel.Action, current int64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(current+1))
	if err := d.cfg.State.Put(usedKey(scope, action), buf[:]); err != nil {
		return fmt.Errorf("device: persist counter: %w", err)
	}
	return d.cfg.State.Sync()
}

// challengeContext binds a card proof to this device, nonce and license.
func challengeContext(deviceID string, nonce []byte, serial license.Serial) []byte {
	out := []byte("p2drm/play-challenge/v1|")
	out = append(out, deviceID...)
	out = append(out, '|')
	out = append(out, nonce...)
	out = append(out, serial[:]...)
	return out
}

// checkRevocation enforces the fail-closed revocation policy.
func (d *Device) checkRevocation(serial license.Serial) error {
	d.mu.Lock()
	f := d.filter
	d.mu.Unlock()
	if f == nil {
		return ErrNoRevocationFilter
	}
	if f.Contains(serial[:]) {
		// Possibly a false positive; compliant devices deny conservatively
		// until a fresh filter or an explicit provider check clears it.
		return ErrRevoked
	}
	return nil
}

// challengeCard verifies the card knows the license pseudonym's key.
func (d *Device) challengeCard(card *smartcard.Card, index uint32, holderSign []byte, serial license.Serial) error {
	nonce := make([]byte, 16)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return fmt.Errorf("device: nonce: %w", err)
	}
	ctx := challengeContext(d.cfg.ID, nonce, serial)
	proof, err := card.Prove(index, ctx)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrChallengeFailed, err)
	}
	holderY := new(big.Int).SetBytes(holderSign)
	if err := schnorr.VerifyProof(d.cfg.Group, holderY, ctx, proof); err != nil {
		return fmt.Errorf("%w: %v", ErrChallengeFailed, err)
	}
	return nil
}

// evaluate runs the rights engine with device facts and persisted counters.
func (d *Device) evaluate(rights *rel.Rights, action rel.Action, scope string) (rel.Decision, error) {
	used, err := d.usedCount(scope, action)
	if err != nil {
		return rel.Decision{}, err
	}
	ctx := rel.Context{
		Now:         d.cfg.Clock(),
		DeviceClass: d.cfg.Class,
		Region:      d.cfg.Region,
		InDomain:    false,
		Used:        map[rel.Action]int64{action: used},
	}
	dec := rights.Evaluate(action, ctx)
	if !dec.Allowed {
		return dec, fmt.Errorf("%w: %s", ErrDenied, dec.Reason)
	}
	if dec.Metered {
		if err := d.incrementUsed(scope, action, used); err != nil {
			return dec, err
		}
	}
	return dec, nil
}

// Play enforces lic and, on success, decrypts encContent to out.
func (d *Device) Play(card *smartcard.Card, index uint32, lic *license.Personalized, encContent io.Reader, out io.Writer) error {
	return d.perform(card, index, lic, rel.ActPlay, encContent, out)
}

// Do enforces an arbitrary action (copy, export, ...) that does not
// involve content decryption.
func (d *Device) Do(card *smartcard.Card, index uint32, lic *license.Personalized, action rel.Action) error {
	return d.perform(card, index, lic, action, nil, nil)
}

func (d *Device) perform(card *smartcard.Card, index uint32, lic *license.Personalized, action rel.Action, encContent io.Reader, out io.Writer) error {
	if err := license.VerifyPersonalized(d.cfg.ProviderPub, lic); err != nil {
		return err
	}
	if err := d.checkRevocation(lic.Serial); err != nil {
		return err
	}
	if err := d.challengeCard(card, index, lic.HolderSign, lic.Serial); err != nil {
		return err
	}
	if _, err := d.evaluate(lic.Rights, action, lic.Serial.String()); err != nil {
		return err
	}
	if encContent == nil {
		return nil
	}
	key, err := card.UnwrapContentKey(index, lic.KeyWrap,
		license.WrapLabelPersonalized(lic.Serial, lic.ContentID))
	if err != nil {
		return err
	}
	if err := envelope.DecryptStream(out, encContent, key); err != nil {
		return fmt.Errorf("device: content decrypt: %w", err)
	}
	return nil
}

// PlayStar enforces a star (delegation) license for the delegate's card.
// Counters are scoped per (parent serial, delegate) so each delegate gets
// exactly the delegated budget.
func (d *Device) PlayStar(card *smartcard.Card, index uint32, parent *license.Personalized, star *license.Star, encContent io.Reader, out io.Writer) error {
	if err := license.VerifyPersonalized(d.cfg.ProviderPub, parent); err != nil {
		return err
	}
	if err := license.VerifyStar(d.cfg.Group, parent, star); err != nil {
		return err
	}
	if err := d.checkRevocation(parent.Serial); err != nil {
		return err
	}
	// The delegate proves ownership of the delegate pseudonym.
	if err := d.challengeCard(card, index, star.DelegateSign, parent.Serial); err != nil {
		return err
	}
	fp := d.cfg.Group.Fingerprint(new(big.Int).SetBytes(star.DelegateSign))
	scope := "star:" + parent.Serial.String() + ":" + hex.EncodeToString(fp[:])
	if _, err := d.evaluate(star.Restriction, rel.ActPlay, scope); err != nil {
		return err
	}
	if encContent == nil {
		return nil
	}
	key, err := card.UnwrapContentKey(index, star.KeyWrap,
		license.WrapLabelStar(parent.Serial, parent.ContentID))
	if err != nil {
		return err
	}
	if err := envelope.DecryptStream(out, encContent, key); err != nil {
		return fmt.Errorf("device: content decrypt: %w", err)
	}
	return nil
}

// UsedCount exposes a persisted counter (for UIs and tests).
func (d *Device) UsedCount(serial license.Serial, action rel.Action) (int64, error) {
	return d.usedCount(serial.String(), action)
}

// IdentityPublic returns the device's certified public key, or nil when
// the device has no identity key.
func (d *Device) IdentityPublic() *big.Int {
	if d.cfg.IdentityKey == nil {
		return nil
	}
	return d.cfg.IdentityKey.Y
}

// Certificate is a provider-signed compliance statement binding a device
// identity and class to its public key.
type Certificate struct {
	DeviceID string
	Class    string
	PubKey   []byte // encoded schnorr element
	Sig      []byte // provider FDH-RSA over SigningBytes
}

// SigningBytes returns the canonical certified statement.
func (c *Certificate) SigningBytes() []byte {
	out := []byte("p2drm/device-cert/v1|")
	out = append(out, []byte(strconv.Itoa(len(c.DeviceID)))...)
	out = append(out, '|')
	out = append(out, c.DeviceID...)
	out = append(out, '|')
	out = append(out, c.Class...)
	out = append(out, '|')
	out = append(out, c.PubKey...)
	return out
}

// Certify issues a compliance certificate (run by the provider during
// device manufacturing / activation).
func Certify(signer *rsablind.Signer, g *schnorr.Group, deviceID, class string, pubY *big.Int) (*Certificate, error) {
	if err := g.ValidatePublicKey(pubY); err != nil {
		return nil, fmt.Errorf("device: certify: %w", err)
	}
	c := &Certificate{DeviceID: deviceID, Class: class, PubKey: g.EncodeElement(pubY)}
	sig, err := signer.Sign(c.SigningBytes())
	if err != nil {
		return nil, err
	}
	c.Sig = sig
	return c, nil
}

// VerifyCertificate checks a compliance certificate against the provider
// trust anchor.
func VerifyCertificate(pub *rsa.PublicKey, g *schnorr.Group, c *Certificate) error {
	if c == nil {
		return errors.New("device: nil certificate")
	}
	y := new(big.Int).SetBytes(c.PubKey)
	if err := g.ValidatePublicKey(y); err != nil {
		return fmt.Errorf("device: certificate key: %w", err)
	}
	if err := rsablind.Verify(pub, c.SigningBytes(), c.Sig); err != nil {
		return fmt.Errorf("device: certificate signature: %w", err)
	}
	return nil
}
