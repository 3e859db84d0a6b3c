// Package schnorr implements Schnorr signatures and non-interactive
// zero-knowledge proofs of discrete-log knowledge over safe-prime groups.
//
// P2DRM smartcards register pseudonym public keys with the content
// provider. During registration and at playback challenge time the card
// must prove it knows the pseudonym's private key without revealing
// anything else — exactly a Schnorr proof of knowledge, made non-interactive
// with the Fiat–Shamir transform and bound to a caller-supplied context so
// proofs cannot be replayed across protocols.
//
// Groups are the Oakley/RFC 3526 MODP groups: p is a safe prime
// (p = 2q + 1, q prime) with p ≡ 7 (mod 8), so g = 2 is a quadratic residue
// generating the prime-order-q subgroup. Group768 exists to keep tests and
// micro-benchmarks fast; Group2048 is the production default.
package schnorr

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Group describes a prime-order-q subgroup of Z_p^* with generator G.
type Group struct {
	Name string
	P    *big.Int // safe prime modulus
	Q    *big.Int // subgroup order, (P-1)/2
	G    *big.Int // generator of the order-Q subgroup
}

const (
	hex768 = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
		"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
		"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
		"E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF"

	hex2048 = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
		"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
		"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
		"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
		"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D" +
		"C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F" +
		"83655D23DCA3AD961C62F356208552BB9ED529077096966D" +
		"670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B" +
		"E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9" +
		"DE2BCBF6955817183995497CEA956AE515D2261898FA0510" +
		"15728E5A8AACAA68FFFFFFFFFFFFFFFF"
)

var (
	group768  = mustGroup("modp768", hex768)
	group2048 = mustGroup("modp2048", hex2048)
)

func mustGroup(name, hexP string) *Group {
	p, ok := new(big.Int).SetString(hexP, 16)
	if !ok {
		panic("schnorr: bad group constant " + name)
	}
	q := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 1)
	return &Group{Name: name, P: p, Q: q, G: big.NewInt(2)}
}

// Group768 returns the 768-bit Oakley Group 1. Too small for production
// security; used for fast tests and to show crossover behaviour in benches.
func Group768() *Group { return group768 }

// Group2048 returns the 2048-bit RFC 3526 Group 14, the default group for
// all P2DRM protocol keys.
func Group2048() *Group { return group2048 }

// elemLen and scalarLen size fixed-width encodings.
func (g *Group) elemLen() int   { return (g.P.BitLen() + 7) / 8 }
func (g *Group) scalarLen() int { return (g.Q.BitLen() + 7) / 8 }

// EncodeElement serialises a group element fixed-width.
func (g *Group) EncodeElement(v *big.Int) []byte {
	return v.FillBytes(make([]byte, g.elemLen()))
}

// PrivateKey is a Schnorr key pair: X secret, Y = G^X mod P public.
type PrivateKey struct {
	Group *Group
	X     *big.Int
	PublicKey
}

// PublicKey is the public half of a Schnorr key pair.
type PublicKey struct {
	Y *big.Int
}

// GenerateKey draws X uniformly from [1, Q-1] and computes Y.
func GenerateKey(g *Group, random io.Reader) (*PrivateKey, error) {
	if g == nil {
		return nil, errors.New("schnorr: nil group")
	}
	x, err := randScalar(g, random)
	if err != nil {
		return nil, err
	}
	y := g.ExpG(x)
	return &PrivateKey{Group: g, X: x, PublicKey: PublicKey{Y: y}}, nil
}

// NewPrivateKey reconstructs a key pair from a stored secret scalar,
// validating its range. Smartcards use this to rebuild pseudonym keys from
// HKDF-derived scalars instead of persisting each one.
func NewPrivateKey(g *Group, secret []byte) (*PrivateKey, error) {
	if g == nil {
		return nil, errors.New("schnorr: nil group")
	}
	x := new(big.Int).SetBytes(secret)
	x.Mod(x, new(big.Int).Sub(g.Q, big.NewInt(1)))
	x.Add(x, big.NewInt(1)) // x in [1, Q-1]
	y := g.ExpG(x)
	return &PrivateKey{Group: g, X: x, PublicKey: PublicKey{Y: y}}, nil
}

// ValidatePublicKey checks that y is a non-trivial member of the order-Q
// subgroup: 1 < y < p and y is a quadratic residue mod p. For a safe
// prime p = 2q+1 the order-q subgroup is exactly the QRs, so the Jacobi
// symbol decides membership in ~µs instead of the full y^q ≡ 1
// exponentiation (p-1, the only element of order 2 in range, has
// Jacobi(p-1, p) = -1 since q is odd, so it is rejected too). The
// provider runs this on every registered pseudonym to block
// small-subgroup tricks.
func (g *Group) ValidatePublicKey(y *big.Int) error {
	if y == nil {
		return errors.New("schnorr: nil public key")
	}
	one := big.NewInt(1)
	if y.Cmp(one) <= 0 || y.Cmp(new(big.Int).Sub(g.P, one)) >= 0 {
		return errors.New("schnorr: public key out of range")
	}
	if big.Jacobi(y, g.P) != 1 {
		return errors.New("schnorr: public key not in prime-order subgroup")
	}
	return nil
}

// Signature is a Fiat–Shamir Schnorr signature (challenge E, response S).
// R is the nonce commitment g^k; Sign computes it anyway, and carrying
// it lets batch verification check many signatures with one
// multi-exponentiation. R is advisory: plain Verify never uses it, and a
// signature parsed from the legacy two-scalar wire form has R == nil.
type Signature struct {
	E *big.Int
	S *big.Int
	R *big.Int
}

// Bytes encodes the signature fixed-width for transport. The encoding
// is the two scalars only — R is droppable by construction — so stored
// signatures (licenses, device records) are byte-stable across versions.
func (sig *Signature) Bytes(g *Group) []byte {
	n := g.scalarLen()
	out := make([]byte, 2*n)
	sig.E.FillBytes(out[:n])
	sig.S.FillBytes(out[n:])
	return out
}

// ParseSignature decodes a fixed-width signature.
func ParseSignature(g *Group, data []byte) (*Signature, error) {
	n := g.scalarLen()
	if len(data) != 2*n {
		return nil, fmt.Errorf("schnorr: signature length %d, want %d", len(data), 2*n)
	}
	return &Signature{
		E: new(big.Int).SetBytes(data[:n]),
		S: new(big.Int).SetBytes(data[n:]),
	}, nil
}

// Sign produces a Schnorr signature over msg. With random ==
// crypto/rand.Reader and a nonce pool enabled on the group, the nonce
// pair comes precomputed from the pool; any other reader generates
// inline (consuming exactly the bytes the un-pooled path always did, so
// deterministic test readers are unaffected).
func (k *PrivateKey) Sign(msg []byte, random io.Reader) (*Signature, error) {
	g := k.Group
	nonce, err := g.Nonce(random)
	if err != nil {
		return nil, err
	}
	e := challenge(g, k.Y, nonce.R, msg)
	// s = k + e*x mod q
	s := new(big.Int).Mul(e, k.X)
	s.Add(s, nonce.K)
	s.Mod(s, g.Q)
	return &Signature{E: e, S: s, R: nonce.R}, nil
}

// Verify checks sig over msg under public key y.
func Verify(g *Group, y *big.Int, msg []byte, sig *Signature) error {
	if sig == nil || sig.E == nil || sig.S == nil {
		return errors.New("schnorr: nil signature")
	}
	if sig.S.Sign() < 0 || sig.S.Cmp(g.Q) >= 0 || sig.E.Sign() < 0 || sig.E.Cmp(g.Q) >= 0 {
		return errors.New("schnorr: signature scalar out of range")
	}
	if err := g.ValidatePublicKey(y); err != nil {
		return err
	}
	if challenge(g, y, recommit(g, y, sig.E, sig.S), msg).Cmp(sig.E) != 0 {
		return errors.New("schnorr: verification failed")
	}
	return nil
}

// recommit recomputes the nonce commitment r' = g^s · y^{-e} mod p that
// a valid (e, s) hashes back to, for 0 < y < p. The inverse is taken
// after the exponentiation, (y^e)^{-1}: an honest challenge is a 256-bit
// hash, so y^e costs a third of the squarings of the full-width y^{q-e}
// it replaces, and one modular inverse is cheap beside that. Every
// value here is public, so ModInverse's variable timing leaks nothing.
func recommit(g *Group, y, e, s *big.Int) *big.Int {
	r := g.ExpG(s)
	ye := new(big.Int).Exp(y, e, g.P)
	r.Mul(r, ye.ModInverse(ye, g.P))
	return r.Mod(r, g.P)
}

// Proof is a NIZK proof of knowledge of the discrete log of Y, bound to a
// context string. Structurally a signature over the context under domain
// separation, kept as a distinct type so protocol code cannot confuse the
// two uses.
type Proof struct {
	Sig Signature
}

const proofTag = "p2drm/schnorr-pok/v1\x00"

// Prove demonstrates knowledge of k.X bound to context (e.g. a provider
// challenge nonce plus protocol name).
func (k *PrivateKey) Prove(context []byte, random io.Reader) (*Proof, error) {
	sig, err := k.Sign(append([]byte(proofTag), context...), random)
	if err != nil {
		return nil, err
	}
	return &Proof{Sig: *sig}, nil
}

// VerifyProof checks a proof of knowledge for public key y under context.
func VerifyProof(g *Group, y *big.Int, context []byte, p *Proof) error {
	if p == nil {
		return errors.New("schnorr: nil proof")
	}
	return Verify(g, y, append([]byte(proofTag), context...), &p.Sig)
}

// Bytes encodes the proof for transport: E ‖ S, followed by the nonce
// commitment R when the proof carries one. The commitment costs one
// group element on the wire and lets the server batch-verify many
// proofs with a single multi-exponentiation (see VerifyProofBatch).
func (p *Proof) Bytes(g *Group) []byte {
	sig := p.Sig.Bytes(g)
	if p.Sig.R == nil {
		return sig
	}
	return append(sig, g.EncodeElement(p.Sig.R)...)
}

// ParseProof decodes a proof in either wire form: the legacy two-scalar
// encoding (R stays nil — still verifiable one at a time) or the
// extended form with the trailing commitment.
func ParseProof(g *Group, data []byte) (*Proof, error) {
	n := g.scalarLen()
	var rBytes []byte
	if len(data) == 2*n+g.elemLen() {
		rBytes = data[2*n:]
		data = data[:2*n]
	}
	sig, err := ParseSignature(g, data)
	if err != nil {
		return nil, err
	}
	if rBytes != nil {
		r := new(big.Int).SetBytes(rBytes)
		if r.Sign() <= 0 || r.Cmp(g.P) >= 0 {
			return nil, errors.New("schnorr: proof commitment out of range")
		}
		sig.R = r
	}
	return &Proof{Sig: *sig}, nil
}

// challenge computes H(tag || p || g || y || r || msg) mod q.
func challenge(g *Group, y, r *big.Int, msg []byte) *big.Int {
	h := sha256.New()
	h.Write([]byte("p2drm/schnorr-challenge/v1"))
	writeLen(h, g.P.Bytes())
	writeLen(h, g.G.Bytes())
	writeLen(h, y.Bytes())
	writeLen(h, r.Bytes())
	writeLen(h, msg)
	e := new(big.Int).SetBytes(h.Sum(nil))
	return e.Mod(e, g.Q)
}

// writeLen writes a length-prefixed field, preventing ambiguity between
// adjacent variable-length values in the challenge hash.
func writeLen(w io.Writer, b []byte) {
	var hdr [4]byte
	hdr[0] = byte(len(b) >> 24)
	hdr[1] = byte(len(b) >> 16)
	hdr[2] = byte(len(b) >> 8)
	hdr[3] = byte(len(b))
	w.Write(hdr[:])
	w.Write(b)
}

// randScalar draws a uniform scalar in [1, Q-1].
func randScalar(g *Group, random io.Reader) (*big.Int, error) {
	byteLen := (g.Q.BitLen() + 7) / 8
	buf := make([]byte, byteLen)
	topMask := byte(0xff >> (uint(byteLen*8) - uint(g.Q.BitLen())))
	for {
		if _, err := io.ReadFull(random, buf); err != nil {
			return nil, fmt.Errorf("schnorr: randomness: %w", err)
		}
		buf[0] &= topMask
		x := new(big.Int).SetBytes(buf)
		if x.Sign() > 0 && x.Cmp(g.Q) < 0 {
			return x, nil
		}
	}
}

// Equal reports whether two public keys are the same point in the same
// encoding.
func (pk PublicKey) Equal(other PublicKey) bool {
	if pk.Y == nil || other.Y == nil {
		return pk.Y == other.Y
	}
	return pk.Y.Cmp(other.Y) == 0
}

// Fingerprint returns a short stable identifier for a public key, used as
// a database key for pseudonym records.
func (g *Group) Fingerprint(y *big.Int) [32]byte {
	return sha256.Sum256(append([]byte("p2drm/pseudonym-fp/v1"), g.EncodeElement(y)...))
}
