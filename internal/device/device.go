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
package device

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"time"

	"p2drm/internal/cryptox/envelope"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/fuse"
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
}

// Device is a compliant player.
type Device struct {
	cfg Config

	mu           sync.Mutex
	filter       *fuse.Filter
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
// one with fewer serials is the older. (A cut's count is the exact number
// of distinct revoked serials, which a revocation only raises.) The
// device reads the installed filter in place from sf.Filter, which must
// not change afterwards.
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
		// Possibly a false positive; compliant devices deny conservatively.
		// Every cut has a fresh salt, so the next filter the provider
		// signs clears it with probability 1 − its false-positive rate.
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

// UsedCount exposes a persisted counter (for UIs and tests).
func (d *Device) UsedCount(serial license.Serial, action rel.Action) (int64, error) {
	return d.usedCount(serial.String(), action)
}
