// Package rsablind implements Chaum RSA blind signatures.
//
// Blind signatures are the primitive behind both anonymous licenses and
// anonymous cash in P2DRM: the content provider signs a serial number it
// never sees, so when the serial is later redeemed the provider can verify
// its own signature but cannot link redemption back to issuance.
//
// The construction is the classic one over a full-domain hash:
//
//	requester: m  = FDH(msg)              (hash into Z_N)
//	           m' = m * r^e mod N          (blind with random r)
//	signer:    s' = m'^d mod N             (sign the blinded value)
//	requester: s  = s' * r^-1 mod N        (unblind)
//	anyone:    s^e == FDH(msg) mod N       (verify)
//
// The full-domain hash expands SHA-256 with a counter until the candidate
// is in [2, N-2], which makes the scheme a standard FDH-RSA instance.
//
// Keys used for blind signing must be dedicated: because the signer raises
// an arbitrary group element to d, a key shared with any other RSA use
// would become a decryption/signing oracle. The provider therefore holds
// separate key pairs for license signing, anonymous-serial blinding and
// cash (see internal/provider).
package rsablind

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"
)

var (
	// ErrVerification is returned when a signature does not verify.
	ErrVerification = errors.New("rsablind: verification failed")
	// ErrBadBlindedValue is returned by the signer for out-of-range input.
	ErrBadBlindedValue = errors.New("rsablind: blinded value out of range")
	// ErrStaleKey is returned by the signer when the requester names a key
	// other than the signer's: the requester blinded under a key it cached
	// and the signer no longer holds, so a signature would be worthless.
	ErrStaleKey = errors.New("rsablind: key id does not match the signing key")
	// ErrFault is returned by the signer when its own result fails the
	// verification equation: the private operation was computed wrongly
	// (bad hardware, a corrupted key) and releasing it would hand out a
	// factor of the modulus.
	ErrFault = errors.New("rsablind: signature failed its own verification, not released")
)

// KeyID names a verification key in 16 hex digits: a truncated SHA-256
// over the exponent and modulus. A requester sends the id of the key it
// blinded under and the signer refuses (ErrStaleKey) before it debits,
// burns or signs anything if that is not its own — which is what lets a
// client cache a key. It is a name, not a commitment: it guards against a
// changed key, not against a chosen one.
func KeyID(pub *rsa.PublicKey) string {
	h := sha256.New()
	h.Write([]byte("p2drm/keyid/v1"))
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], uint64(pub.E))
	h.Write(e[:])
	h.Write(pub.N.Bytes())
	return hex.EncodeToString(h.Sum(nil)[:8])
}

var one = big.NewInt(1)

// blindingFactor is what Blind needs of a blinding value r: r^e (to
// blind) and r^-1 (to unblind).
type blindingFactor struct {
	re   *big.Int
	rInv *big.Int
}

// fdh hashes msg into the multiplicative range [2, N-2] using SHA-256 with
// an incrementing counter (full-domain hash). It is deterministic in
// (N, msg).
func fdh(n *big.Int, msg []byte) *big.Int {
	byteLen := (n.BitLen() + 7) / 8
	buf := make([]byte, 0, byteLen+sha256.Size)
	var ctr uint32
	for {
		buf = buf[:0]
		for len(buf) < byteLen {
			var block [4]byte
			binary.BigEndian.PutUint32(block[:], ctr)
			h := sha256.New()
			h.Write([]byte("p2drm/fdh/v1"))
			h.Write(block[:])
			h.Write(msg)
			buf = h.Sum(buf)
			ctr++
		}
		c := new(big.Int).SetBytes(buf[:byteLen])
		c.Mod(c, n)
		// Reject 0, 1 and N-1 (trivial signatures); retry with next counter.
		if c.Cmp(one) > 0 {
			nm1 := new(big.Int).Sub(n, one)
			if c.Cmp(nm1) != 0 {
				return c
			}
		}
	}
}

// State carries the requester's secret blinding factor between Blind and
// Unblind. It must be kept private and used exactly once.
type State struct {
	msg  []byte
	rInv *big.Int
}

// Msg returns the message captured at blinding time.
func (s *State) Msg() []byte { return s.msg }

// Blind hashes msg and blinds it with a fresh random factor, returning the
// value to send to the signer and the state needed to unblind the result.
func Blind(pub *rsa.PublicKey, msg []byte, random io.Reader) ([]byte, *State, error) {
	if pub == nil || pub.N == nil || pub.N.Sign() <= 0 {
		return nil, nil, errors.New("rsablind: nil or invalid public key")
	}
	m := fdh(pub.N, msg)
	f, err := newFactor(pub, random)
	if err != nil {
		return nil, nil, err
	}
	blinded := new(big.Int).Mul(m, f.re)
	blinded.Mod(blinded, pub.N)
	st := &State{msg: append([]byte(nil), msg...), rInv: f.rInv}
	return toFixed(blinded, pub.N), st, nil
}

// newFactor draws a blinding factor r from random and returns r^e and
// r^-1 mod N computed on r·u for a fresh unit u, never on r:
// (r·u)^e · (u^-1)^e = r^e. One inversion, of w = r·u², yields both
// inverses: r^-1 = w^-1·u² and u^-1 = w^-1·r·u. math/big's Exp and
// ModInverse take operand-dependent time, measurable on a reused r
// (TestTimingBlind). u comes from crypto/rand and changes only timing,
// so a deterministic reader still yields the same factor. Without
// crypto/rand there is no mask, and newFactor fails rather than blind
// unmasked.
func newFactor(pub *rsa.PublicKey, random io.Reader) (blindingFactor, error) {
	n, e := pub.N, big.NewInt(int64(pub.E))
	mulMod := func(x, y *big.Int) *big.Int { return new(big.Int).Mod(new(big.Int).Mul(x, y), n) }
	for tries := 0; tries < 64; tries++ {
		r, err := randomUnit(n, random)
		if err != nil {
			return blindingFactor{}, err
		}
		u, err := randomUnit(n, rand.Reader)
		if err != nil {
			return blindingFactor{}, err
		}
		ru := mulMod(r, u)
		wInv := new(big.Int).ModInverse(mulMod(ru, u), n)
		if wInv == nil {
			continue // gcd(r·u, N) != 1: astronomically rare, retry
		}
		uInv := mulMod(wInv, ru)
		re := mulMod(new(big.Int).Exp(ru, e, n), uInv.Exp(uInv, e, n))
		return blindingFactor{re: re, rInv: mulMod(mulMod(wInv, u), u)}, nil
	}
	return blindingFactor{}, errors.New("rsablind: could not find invertible blinding factor")
}

// Signer holds the private key that signs blinded values.
type Signer struct {
	key   *rsa.PrivateKey
	e     *big.Int
	keyID string
	// ops counts private exponentiations: what a signature costs, and the
	// number a caller that shares signatures sets out to lower.
	ops atomic.Uint64
}

// NewSigner wraps an RSA private key for blind signing. The key must not
// be used for any other purpose.
func NewSigner(key *rsa.PrivateKey) (*Signer, error) {
	if key == nil {
		return nil, errors.New("rsablind: nil key")
	}
	if err := key.Validate(); err != nil {
		return nil, fmt.Errorf("rsablind: invalid key: %w", err)
	}
	key.Precompute() // CRT exponents for privExp (idempotent)
	return &Signer{key: key, e: big.NewInt(int64(key.E)), keyID: KeyID(&key.PublicKey)}, nil
}

// privExp computes b^d mod N for b in [0, N) via the CRT when the key is
// a standard two-prime key (~3-4x faster than the full-exponent path: two
// half-size exponentiations plus Garner recombination), falling back to
// plain Exp for multi-prime or un-precomputed keys. Both paths compute
// exactly the same value.
//
// The result is checked against the verification equation before it is
// returned. A CRT result with ONE faulted half is right modulo one prime
// and wrong modulo the other, so gcd(s^e - b, N) is a prime factor for
// whoever knows b — and a requester chose b (Boneh, DeMillo, Lipton). One
// public-exponent operation, about 7 % of the signature's cost, keeps such
// a value in this function.
func (s *Signer) privExp(b *big.Int) (*big.Int, error) {
	s.ops.Add(1)
	k := s.key
	pc := &k.Precomputed
	var m *big.Int
	if len(k.Primes) != 2 || pc.Dp == nil || pc.Dq == nil || pc.Qinv == nil {
		m = new(big.Int).Exp(b, k.D, k.N)
	} else {
		p, q := k.Primes[0], k.Primes[1]
		m1 := new(big.Int).Exp(b, pc.Dp, p)
		m2 := new(big.Int).Exp(b, pc.Dq, q)
		h := m1.Sub(m1, m2)
		h.Mul(h, pc.Qinv)
		h.Mod(h, p) // Go's Mod is Euclidean: result in [0, p) even for negative h
		m = h.Mul(h, q)
		m.Add(m, m2)
	}
	if new(big.Int).Exp(m, s.e, k.N).Cmp(b) != 0 {
		return nil, ErrFault
	}
	return m, nil
}

// PrivateOps reports how many private exponentiations this signer has
// run, faulted ones included.
func (s *Signer) PrivateOps() uint64 { return s.ops.Load() }

// Public returns the signer's public key.
func (s *Signer) Public() *rsa.PublicKey { return &s.key.PublicKey }

// KeyID is KeyID(s.Public()), computed once.
func (s *Signer) KeyID() string { return s.keyID }

// CheckKeyID refuses a requester-named key id that is not the signer's.
func (s *Signer) CheckKeyID(id string) error {
	if id != s.keyID {
		return ErrStaleKey
	}
	return nil
}

// CheckBlinded reports ErrBadBlindedValue for a value SignBlinded would
// refuse, at the cost of a comparison: a caller that must refuse a whole
// list over one bad entry checks before it signs any.
func (s *Signer) CheckBlinded(blinded []byte) error {
	_, err := s.blindedInt(blinded)
	return err
}

func (s *Signer) blindedInt(blinded []byte) (*big.Int, error) {
	b := new(big.Int).SetBytes(blinded)
	if b.Sign() <= 0 || b.Cmp(s.key.N) >= 0 {
		return nil, ErrBadBlindedValue
	}
	return b, nil
}

// SignBlinded raises the blinded value to the private exponent. The signer
// learns nothing about the underlying message.
func (s *Signer) SignBlinded(blinded []byte) ([]byte, error) {
	b, err := s.blindedInt(blinded)
	if err != nil {
		return nil, err
	}
	sig, err := s.privExp(b)
	if err != nil {
		return nil, err
	}
	return toFixed(sig, s.key.N), nil
}

// Unblind removes the blinding factor from the signer's response, yielding
// a plain FDH-RSA signature over the original message. It verifies the
// result before returning so a misbehaving signer is detected immediately.
func Unblind(pub *rsa.PublicKey, st *State, blindedSig []byte) ([]byte, error) {
	if st == nil || st.rInv == nil {
		return nil, errors.New("rsablind: nil state")
	}
	bs := new(big.Int).SetBytes(blindedSig)
	if bs.Sign() <= 0 || bs.Cmp(pub.N) >= 0 {
		return nil, ErrBadBlindedValue
	}
	sig := new(big.Int).Mul(bs, st.rInv)
	sig.Mod(sig, pub.N)
	out := toFixed(sig, pub.N)
	if err := Verify(pub, st.msg, out); err != nil {
		return nil, fmt.Errorf("rsablind: signer returned bad signature: %w", err)
	}
	return out, nil
}

// Verify checks a (possibly unblinded) FDH-RSA signature over msg.
func Verify(pub *rsa.PublicKey, msg, sig []byte) error {
	s := new(big.Int).SetBytes(sig)
	if s.Sign() <= 0 || s.Cmp(pub.N) >= 0 {
		return ErrVerification
	}
	e := big.NewInt(int64(pub.E))
	m := new(big.Int).Exp(s, e, pub.N)
	if m.Cmp(fdh(pub.N, msg)) != 0 {
		return ErrVerification
	}
	return nil
}

// Sign produces a plain (non-blind) FDH-RSA signature with the same
// verification equation. The provider uses this for license signing where
// blinding is not required, so one Verify covers both paths.
func (s *Signer) Sign(msg []byte) ([]byte, error) {
	sig, err := s.privExp(fdh(s.key.N, msg))
	if err != nil {
		return nil, err
	}
	return toFixed(sig, s.key.N), nil
}

// randomUnit draws a uniform element of [2, N-1).
func randomUnit(n *big.Int, random io.Reader) (*big.Int, error) {
	max := new(big.Int).Sub(n, big.NewInt(3)) // [0, n-4]
	for {
		r, err := randInt(random, max)
		if err != nil {
			return nil, fmt.Errorf("rsablind: randomness: %w", err)
		}
		r.Add(r, big.NewInt(2)) // [2, n-2]
		return r, nil
	}
}

// randInt returns a uniform random integer in [0, max]. It mirrors
// crypto/rand.Int but works with any io.Reader so deterministic tests can
// inject a seeded source.
func randInt(random io.Reader, max *big.Int) (*big.Int, error) {
	if max.Sign() < 0 {
		return nil, errors.New("rsablind: negative max")
	}
	bitLen := max.BitLen()
	if bitLen == 0 {
		return new(big.Int), nil
	}
	byteLen := (bitLen + 7) / 8
	buf := make([]byte, byteLen)
	topMask := byte(0xff >> (uint(byteLen*8) - uint(bitLen)))
	for {
		if _, err := io.ReadFull(random, buf); err != nil {
			return nil, err
		}
		buf[0] &= topMask
		r := new(big.Int).SetBytes(buf)
		if r.Cmp(max) <= 0 {
			return r, nil
		}
	}
}

// toFixed encodes v as a fixed-width big-endian slice sized to the modulus,
// so signatures have a stable length on the wire.
func toFixed(v, n *big.Int) []byte {
	byteLen := (n.BitLen() + 7) / 8
	return v.FillBytes(make([]byte, byteLen))
}

// SigLen reports the byte length of signatures under pub.
func SigLen(pub *rsa.PublicKey) int { return (pub.N.BitLen() + 7) / 8 }

// Prehash returns the full-domain hash of msg encoded for the signer —
// i.e. what Blind would send with the blinding factor fixed to 1. The
// no-blinding ablation (wallet.Config.Linkable) sends this value so
// the signer's response verifies as a plain signature over msg while the
// signer sees the serial in clear.
func Prehash(pub *rsa.PublicKey, msg []byte) []byte {
	return toFixed(fdh(pub.N, msg), pub.N)
}
