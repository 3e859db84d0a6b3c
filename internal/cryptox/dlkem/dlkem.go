// Package dlkem implements a hashed-ElGamal key encapsulation mechanism
// over the schnorr groups.
//
// Personalized licenses carry the content key wrapped to the buyer's
// pseudonym. Pseudonyms are discrete-log keys (so the card can derive them
// from one seed and prove ownership with Schnorr proofs); wrapping to them
// therefore needs a DL-based KEM rather than RSA:
//
//	encap:  k ← [1,q),  c = g^k,  shared = y^k,  KEK = HKDF(enc(c)‖enc(shared))
//	decap:  shared = c^x,         KEK = HKDF(enc(c)‖enc(shared))
//
// Binding the ciphertext into the KDF input ties the KEK to this exact
// encapsulation (standard hashed-ElGamal, IND-CCA in the ROM under GDH
// with the subgroup check on decap).
//
// There are two encapsulating sides and one decapsulating side. Encap
// draws a fresh k per call: for a party that wraps once (a card issuing a
// star licence). Sender keeps one k
// for its lifetime and the KEK per recipient: for the provider, which
// wraps its own content keys to the same pseudonyms all day and should
// pay y^k once per pseudonym, not once per licence. Decap serves both
// and cannot tell them apart.
package dlkem

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"p2drm/internal/cryptox/kdf"
	"p2drm/internal/cryptox/schnorr"
)

// KEKLen is the derived key-encryption-key length.
const KEKLen = 32

// Encap generates a fresh encapsulation against public key y. It returns
// the ciphertext (a fixed-width group element) and the derived KEK.
// The ephemeral (k, g^k) pair comes from the group's nonce pool when one
// is enabled and random is crypto/rand.Reader; otherwise it is generated
// inline from the caller's reader exactly as before.
func Encap(g *schnorr.Group, y *big.Int, random io.Reader) (ct, kek []byte, err error) {
	if g == nil {
		return nil, nil, errors.New("dlkem: nil group")
	}
	if err := g.ValidatePublicKey(y); err != nil {
		return nil, nil, fmt.Errorf("dlkem: recipient key: %w", err)
	}
	nonce, err := g.Nonce(random)
	if err != nil {
		return nil, nil, fmt.Errorf("dlkem: %w", err)
	}
	c := nonce.R
	shared := new(big.Int).Exp(y, nonce.K, g.P)
	kek, err = deriveKEK(g, c, shared)
	if err != nil {
		return nil, nil, err
	}
	return g.EncodeElement(c), kek, nil
}

// Decap recovers the KEK from a ciphertext with private scalar x.
func Decap(g *schnorr.Group, x *big.Int, ct []byte) ([]byte, error) {
	if g == nil {
		return nil, errors.New("dlkem: nil group")
	}
	want := (g.P.BitLen() + 7) / 8
	if len(ct) != want {
		return nil, fmt.Errorf("dlkem: ciphertext length %d, want %d", len(ct), want)
	}
	c := new(big.Int).SetBytes(ct)
	// Subgroup check blocks invalid-curve-style small subgroup probing.
	if err := g.ValidatePublicKey(c); err != nil {
		return nil, fmt.Errorf("dlkem: ciphertext: %w", err)
	}
	shared := new(big.Int).Exp(c, x, g.P)
	return deriveKEK(g, c, shared)
}

func deriveKEK(g *schnorr.Group, c, shared *big.Int) ([]byte, error) {
	ikm := append(g.EncodeElement(c), g.EncodeElement(shared)...)
	return kdf.Key(ikm, []byte("p2drm/dlkem/v1/"+g.Name), nil, KEKLen)
}
