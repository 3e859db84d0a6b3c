// Package license defines the three license forms of the P2DRM protocol
// and their canonical signed encodings.
//
//   - Personalized licenses bind content + rights + a wrapped content key
//     to one pseudonym. They are what compliant devices enforce. The
//     provider signs a Merkle root over the licenses one call issues to
//     one pseudonym (Sign) and each carries its path to it; a license
//     issued alone is the one-leaf case of the same encoding.
//   - Anonymous licenses are bearer tokens: a user-chosen serial
//     blind-signed by the provider under a per-(content, rights)
//     denomination key. They exist so a license can change hands without
//     the provider being able to link giver and receiver.
//
// Nothing in this package talks to the network or stores state; it is the
// data model shared by provider, device, smartcard and client.
package license

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"time"

	"p2drm/internal/cryptox/dlkem"
	"p2drm/internal/cryptox/envelope"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/merkle"
	"p2drm/internal/rel"
)

// ContentID names a catalog item.
type ContentID string

// SerialLen is the serial length in bytes.
const SerialLen = 32

// Serial is a unique license identifier. Personalized serials are chosen
// by the provider; anonymous serials are chosen by the *user* (and blinded
// before the provider ever sees them).
type Serial [SerialLen]byte

// NewSerial draws a random serial.
func NewSerial() (Serial, error) {
	var s Serial
	if _, err := io.ReadFull(rand.Reader, s[:]); err != nil {
		return Serial{}, fmt.Errorf("license: serial: %w", err)
	}
	return s, nil
}

// String returns the hex form.
func (s Serial) String() string { return hex.EncodeToString(s[:]) }

// ParseSerial decodes a hex serial.
func ParseSerial(h string) (Serial, error) {
	var s Serial
	b, err := hex.DecodeString(h)
	if err != nil || len(b) != SerialLen {
		return Serial{}, errors.New("license: invalid serial encoding")
	}
	copy(s[:], b)
	return s, nil
}

// IsZero reports an unset serial.
func (s Serial) IsZero() bool { return s == Serial{} }

// KeyWrap carries a content key encapsulated to a pseudonym encryption
// key: a dlkem ciphertext plus the content key sealed under the derived
// KEK. The seal's AAD binds the wrap to its license context.
//
// KEM identifies nothing. Wraps made through one dlkem.Sender — every
// license a provider process issues — carry the same group element, and
// two of them to one recipient were sealed under the same KEK; what keeps
// each wrap its own is SealedKey: envelope.Seal's random nonce makes the
// two ciphertexts differ and the label AAD makes each open only as part
// of the license it was made for.
type KeyWrap struct {
	KEM       []byte
	SealedKey []byte
}

// WrapKey encapsulates contentKey to the recipient's public enc key under
// a fresh ephemeral. No serving path wraps this way; it is the one-shot
// reference WrapKeyFrom's wraps are checked against. The label must
// identify the license context (serial + content ID) so wraps cannot be
// transplanted between licenses.
func WrapKey(g *schnorr.Group, recipientY *big.Int, contentKey, label []byte) (KeyWrap, error) {
	ct, kek, err := dlkem.Encap(g, recipientY, rand.Reader)
	if err != nil {
		return KeyWrap{}, err
	}
	return sealWrap(ct, kek, contentKey, label)
}

// WrapKeyFrom is WrapKey through a long-lived sender, which computes its
// share of the encapsulation once per recipient. Same wrap, same Unwrap.
func WrapKeyFrom(s *dlkem.Sender, recipientY *big.Int, contentKey, label []byte) (KeyWrap, error) {
	ct, kek, err := s.Encap(recipientY)
	if err != nil {
		return KeyWrap{}, err
	}
	return sealWrap(ct, kek, contentKey, label)
}

// sealWrap seals contentKey under an encapsulation's KEK, bound to label.
func sealWrap(ct, kek, contentKey, label []byte) (KeyWrap, error) {
	sealed, err := envelope.Seal(kek, contentKey, label)
	if err != nil {
		return KeyWrap{}, err
	}
	return KeyWrap{KEM: ct, SealedKey: sealed}, nil
}

// Unwrap recovers the content key with the recipient's private scalar.
func (kw KeyWrap) Unwrap(g *schnorr.Group, x *big.Int, label []byte) ([]byte, error) {
	kek, err := dlkem.Decap(g, x, kw.KEM)
	if err != nil {
		return nil, err
	}
	return envelope.Open(kek, kw.SealedKey, label)
}

// wrapLabel derives the AAD binding a key wrap to its license.
func wrapLabel(kind string, serial Serial, content ContentID) []byte {
	return []byte("p2drm/wrap/" + kind + "/" + serial.String() + "/" + string(content))
}

// WrapLabelPersonalized is the label for personalized-license key wraps.
func WrapLabelPersonalized(serial Serial, content ContentID) []byte {
	return wrapLabel("personalized", serial, content)
}

// Personalized is a license bound to a pseudonym. HolderSign is the
// pseudonym's Schnorr verification key (proved at playback challenge);
// HolderEnc is its encryption key (target of the key wrap).
type Personalized struct {
	Serial     Serial
	ContentID  ContentID
	HolderSign []byte
	HolderEnc  []byte
	Rights     *rel.Rights
	KeyWrap    KeyWrap
	IssuedAt   time.Time
	// Path leads from this license's leaf — the hash of SigningBytes — to
	// the root ProviderSig signs. The licenses Sign was given together
	// share that root and signature and differ in their paths; a license
	// signed alone is its own root and its path is empty (the zero value).
	// To whoever holds the license a path says how many licenses the call
	// issued, to the power of two, and where this one sat among them.
	Path merkle.Proof
	// ProviderSig is an FDH-RSA signature over the root statement.
	ProviderSig []byte
}

const (
	encVersion       = 2
	kindPersonalized = 1
	kindAnonymous    = 2
)

// MaxPathLen bounds a license's path and MaxPerRoot the licenses one root
// covers: the size of the largest batch call.
const (
	MaxPathLen = 8
	MaxPerRoot = 1 << MaxPathLen
)

// SigningBytes returns the canonical byte string the provider's signature
// vouches for: the license's leaf under the signed root.
func (l *Personalized) SigningBytes() []byte {
	w := &writer{}
	w.byte(encVersion)
	w.byte(kindPersonalized)
	w.buf = append(w.buf, l.Serial[:]...)
	w.str(string(l.ContentID))
	w.bytes(l.HolderSign)
	w.bytes(l.HolderEnc)
	w.bytes(l.Rights.Canonical())
	w.bytes(l.KeyWrap.KEM)
	w.bytes(l.KeyWrap.SealedKey)
	w.u64(uint64(l.IssuedAt.UTC().Unix()))
	return w.buf
}

// rootStatement is what the provider key signs for the licenses under
// root. The tag keeps it apart from everything else that key signs — the
// revocation filter statement — and from a license's own encoding, which
// that key never signs directly.
func rootStatement(root [merkle.HashLen]byte) []byte {
	return append([]byte("p2drm/license-root/v1|"), root[:]...)
}

// Sign signs lics with ONE private-key operation: they become the leaves
// of a Merkle tree, the signature is over its root, and every license
// receives the signature and its own path. Call it with the licenses one
// call issues to one pseudonym and never across two: licenses under one
// root are provably co-issued, which a shared pseudonym says already and
// nothing else may. A single license is its own root and no tree is
// built. On error no license has been touched.
func Sign(signer *rsablind.Signer, lics ...*Personalized) error {
	if len(lics) == 0 {
		return nil
	}
	if len(lics) > MaxPerRoot {
		return fmt.Errorf("license: %d licenses under one root, at most %d", len(lics), MaxPerRoot)
	}
	leaves := make([][]byte, len(lics))
	for i, l := range lics {
		// Nothing is signed that Verify would refuse on structure alone.
		if l == nil {
			return errors.New("license: nil license")
		}
		if err := l.Validate(); err != nil {
			return err
		}
		leaves[i] = l.SigningBytes()
	}
	paths := make([]merkle.Proof, len(lics))
	root := merkle.LeafHash(leaves[0])
	if len(lics) > 1 {
		tree := merkle.Build(leaves)
		root = tree.Root()
		for i, leaf := range leaves {
			p, err := tree.Prove(leaf)
			if err != nil {
				return fmt.Errorf("license: path: %w", err)
			}
			paths[i] = *p
		}
	}
	sig, err := signer.Sign(rootStatement(root))
	if err != nil {
		return fmt.Errorf("license: root signature: %w", err)
	}
	for i, l := range lics {
		l.Path, l.ProviderSig = paths[i], append([]byte(nil), sig...)
	}
	return nil
}

// Marshal encodes the full license: the signed fields, the path, the
// provider signature.
func (l *Personalized) Marshal() []byte {
	w := &writer{buf: l.SigningBytes()}
	w.buf = append(w.buf, l.Path.Marshal()...)
	w.bytes(l.ProviderSig)
	return w.buf
}

// UnmarshalPersonalized decodes a Marshal-ed personalized license.
func UnmarshalPersonalized(data []byte) (*Personalized, error) {
	r := &reader{buf: data}
	if v := r.byte(); v != encVersion && r.err == nil {
		return nil, fmt.Errorf("license: unsupported version %d", v)
	}
	if k := r.byte(); k != kindPersonalized && r.err == nil {
		return nil, fmt.Errorf("license: wrong kind %d for personalized license", k)
	}
	l := &Personalized{}
	if r.off+SerialLen > len(r.buf) {
		return nil, errTruncated
	}
	copy(l.Serial[:], r.buf[r.off:])
	r.off += SerialLen
	l.ContentID = ContentID(r.str())
	l.HolderSign = r.bytes()
	l.HolderEnc = r.bytes()
	rightsText := r.bytes()
	l.KeyWrap.KEM = r.bytes()
	l.KeyWrap.SealedKey = r.bytes()
	l.IssuedAt = time.Unix(int64(r.u64()), 0).UTC()
	l.Path = r.path()
	l.ProviderSig = r.bytes()
	if err := r.done(); err != nil {
		return nil, err
	}
	rights, err := rel.Parse(string(rightsText))
	if err != nil {
		return nil, fmt.Errorf("license: embedded rights: %w", err)
	}
	l.Rights = rights
	return l, nil
}

// Validate checks structural invariants independent of signatures.
func (l *Personalized) Validate() error {
	if l.Serial.IsZero() {
		return errors.New("license: zero serial")
	}
	if l.ContentID == "" {
		return errors.New("license: empty content ID")
	}
	if len(l.HolderSign) == 0 || len(l.HolderEnc) == 0 {
		return errors.New("license: missing holder keys")
	}
	if l.Rights == nil {
		return errors.New("license: nil rights")
	}
	if err := l.Rights.Validate(); err != nil {
		return err
	}
	if len(l.KeyWrap.KEM) == 0 || len(l.KeyWrap.SealedKey) == 0 {
		return errors.New("license: missing key wrap")
	}
	return checkPath(&l.Path)
}

// checkPath refuses a path no Sign call can have produced, before any of
// it is hashed.
func checkPath(p *merkle.Proof) error {
	if len(p.Siblings) > MaxPathLen || len(p.Rights) != len(p.Siblings) ||
		p.LeafIndex < 0 || p.LeafIndex >= MaxPerRoot {
		return fmt.Errorf("license: path outside a tree of %d licenses", MaxPerRoot)
	}
	return nil
}

// VerifyPersonalized checks structure, folds the license's leaf along its
// path and checks the provider signature over the root that yields: the
// one verification for a license issued alone and one issued in a batch.
func VerifyPersonalized(providerPub *rsa.PublicKey, l *Personalized) error {
	if l == nil {
		return errors.New("license: nil license")
	}
	if err := l.Validate(); err != nil {
		return err
	}
	root, err := l.Path.Root(l.SigningBytes())
	if err != nil {
		return fmt.Errorf("license: path: %w", err)
	}
	if err := rsablind.Verify(providerPub, rootStatement(root), l.ProviderSig); err != nil {
		return fmt.Errorf("license: provider signature: %w", err)
	}
	return nil
}

// DenominationID identifies a (content, rights-template) pair. Anonymous
// licenses are blind-signed under a per-denomination key, which is how the
// provider guarantees WHAT an anonymous license is worth without seeing
// WHICH serial it signed.
type DenominationID [32]byte

// Denom computes the denomination for a content item and rights template.
func Denom(content ContentID, template *rel.Rights) DenominationID {
	h := sha256.New()
	h.Write([]byte("p2drm/denom/v1"))
	h.Write([]byte(content))
	h.Write([]byte{0})
	h.Write(template.Canonical())
	var d DenominationID
	copy(d[:], h.Sum(nil))
	return d
}

// String returns the hex form.
func (d DenominationID) String() string { return hex.EncodeToString(d[:]) }

// Anonymous is a bearer license: whoever holds a valid (serial, signature)
// pair under a denomination key may redeem it once.
type Anonymous struct {
	Serial Serial
	Denom  DenominationID
	// Sig is an FDH-RSA signature (obtained blind) over SigningBytes.
	Sig []byte
}

// AnonymousSigningBytes is the message blind-signed at exchange time. The
// user constructs it locally, blinds it, and the provider signs without
// seeing the serial.
func AnonymousSigningBytes(serial Serial, denom DenominationID) []byte {
	w := &writer{}
	w.byte(encVersion)
	w.byte(kindAnonymous)
	w.buf = append(w.buf, serial[:]...)
	w.buf = append(w.buf, denom[:]...)
	return w.buf
}

// SigningBytes returns the canonical signed message.
func (a *Anonymous) SigningBytes() []byte { return AnonymousSigningBytes(a.Serial, a.Denom) }

// Marshal encodes the anonymous license.
func (a *Anonymous) Marshal() []byte {
	w := &writer{buf: a.SigningBytes()}
	w.bytes(a.Sig)
	return w.buf
}

// UnmarshalAnonymous decodes a Marshal-ed anonymous license.
func UnmarshalAnonymous(data []byte) (*Anonymous, error) {
	r := &reader{buf: data}
	if v := r.byte(); v != encVersion && r.err == nil {
		return nil, fmt.Errorf("license: unsupported version %d", v)
	}
	if k := r.byte(); k != kindAnonymous && r.err == nil {
		return nil, fmt.Errorf("license: wrong kind %d for anonymous license", k)
	}
	a := &Anonymous{}
	if r.off+SerialLen+32 > len(r.buf) {
		return nil, errTruncated
	}
	copy(a.Serial[:], r.buf[r.off:])
	r.off += SerialLen
	copy(a.Denom[:], r.buf[r.off:])
	r.off += 32
	a.Sig = r.bytes()
	if err := r.done(); err != nil {
		return nil, err
	}
	return a, nil
}

// VerifyAnonymous checks the blind signature under the denomination key.
func VerifyAnonymous(denomPub *rsa.PublicKey, a *Anonymous) error {
	if a == nil {
		return errors.New("license: nil anonymous license")
	}
	if a.Serial.IsZero() {
		return errors.New("license: zero serial")
	}
	if err := rsablind.Verify(denomPub, a.SigningBytes(), a.Sig); err != nil {
		return fmt.Errorf("license: denomination signature: %w", err)
	}
	return nil
}
