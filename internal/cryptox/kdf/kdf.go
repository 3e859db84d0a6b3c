// Package kdf implements HKDF-SHA256 (RFC 5869) and the pseudonym key
// derivation used by P2DRM smartcards.
//
// The target toolchain (go 1.22) has no crypto/hkdf, so the extract/expand
// construction is written out here against crypto/hmac and crypto/sha256.
// Smartcards derive per-pseudonym secrets from one master seed so that a
// card can mint arbitrarily many unlinkable pseudonyms while persisting only
// 32 bytes.
package kdf

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// HashLen is the output size of the underlying hash (SHA-256).
const HashLen = sha256.Size

// maxExpand is the RFC 5869 limit: 255 blocks of hash output.
const maxExpand = 255 * HashLen

// Extract performs HKDF-Extract: PRK = HMAC-Hash(salt, ikm).
// A nil or empty salt is replaced by HashLen zero bytes, per RFC 5869.
func Extract(salt, ikm []byte) []byte {
	if len(salt) == 0 {
		salt = make([]byte, HashLen)
	}
	m := hmac.New(sha256.New, salt)
	m.Write(ikm)
	return m.Sum(nil)
}

// Expand performs HKDF-Expand, deriving length bytes of output keying
// material from the pseudorandom key prk and context info.
func Expand(prk, info []byte, length int) ([]byte, error) {
	if length <= 0 {
		return nil, errors.New("kdf: non-positive output length")
	}
	if length > maxExpand {
		return nil, fmt.Errorf("kdf: output length %d exceeds maximum %d", length, maxExpand)
	}
	if len(prk) < HashLen {
		return nil, fmt.Errorf("kdf: prk too short: %d < %d", len(prk), HashLen)
	}
	var (
		out  = make([]byte, 0, length)
		prev []byte
		ctr  byte
	)
	for len(out) < length {
		ctr++
		m := hmac.New(sha256.New, prk)
		m.Write(prev)
		m.Write(info)
		m.Write([]byte{ctr})
		prev = m.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length], nil
}

// Key is the one-call HKDF: extract with salt then expand with info.
func Key(ikm, salt, info []byte, length int) ([]byte, error) {
	return Expand(Extract(salt, ikm), info, length)
}

// Pseudonym derivation
//
// A smartcard holds a single 32-byte master seed. Pseudonym i's secret
// material is HKDF(seed, salt="p2drm/pseudonym", info=index). Distinct
// indices yield computationally independent secrets, so the content
// provider cannot link pseudonyms of one card
// (linkage.TestPseudonymReuseIncreasesLinkage relies on this).

// pseudonymSalt domain-separates pseudonym derivation from any other use
// of the same master seed.
var pseudonymSalt = []byte("p2drm/pseudonym/v1")

// SeedLen is the required master seed length in bytes.
const SeedLen = 32

// PseudonymSecret derives the index-th pseudonym secret (length bytes)
// from a master seed. It is deterministic: the same (seed, index) always
// produces the same secret, letting a card regenerate a pseudonym key
// rather than store it.
func PseudonymSecret(seed []byte, index uint32, length int) ([]byte, error) {
	if len(seed) != SeedLen {
		return nil, fmt.Errorf("kdf: seed must be %d bytes, got %d", SeedLen, len(seed))
	}
	info := make([]byte, 8)
	copy(info, "pskey")
	binary.BigEndian.PutUint32(info[4:], index)
	return Key(seed, pseudonymSalt, info, length)
}

// SubKey derives a labelled subkey from parent key material. It is used to
// split one negotiated secret into independent encryption and MAC keys.
func SubKey(parent []byte, label string, length int) ([]byte, error) {
	if len(parent) == 0 {
		return nil, errors.New("kdf: empty parent key")
	}
	return Key(parent, []byte("p2drm/subkey/v1"), []byte(label), length)
}
