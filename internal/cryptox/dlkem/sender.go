package dlkem

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"p2drm/internal/cryptox/schnorr"
)

// senderCapacity bounds a Sender's share cache. The cache is two
// generations of senderCapacity/2 keys: a recipient that is wrapped to
// again within the next senderCapacity/2 first sightings of other keys is
// carried into the current generation and never recomputed, however many
// one-time keys pass through beside it.
const senderCapacity = 4096

// shareBlindBits is the width of the fresh multiple of q added to the
// sender's exponent on every exponentiation (as schnorr.Group.ExpG does
// for its own).
const shareBlindBits = 64

// Sender is the encapsulating side of the KEM for a party that wraps to
// the same recipients again and again. It draws ONE ephemeral pair
// (k, c = g^k) for its lifetime and remembers, per recipient key y, the
// KEK derived from y^k: the second and every later encapsulation to a
// recipient costs a map lookup. What it returns is exactly what Encap
// would have returned had Encap drawn this k — same ciphertext format,
// same deriveKEK, same Decap on the receiving side — so nothing on the
// wire and nothing in a recipient tells the two apart, except that every
// ciphertext of one Sender is the same group element.
//
// Soundness (docs/crypto.md, "One KEM sender per process"): hashed ElGamal
// is reproducible, so one ephemeral across recipients is the randomness
// re-use of Bellare–Boldyreva–Staddon; two encapsulations to one
// recipient yield the SAME KEK, so whoever seals under it must bring its
// own per-message nonce (envelope.Seal does). A Sender is for wrapping
// secrets its owner keeps anyway: it has no forward secrecy to offer.
//
// A Sender is safe for concurrent use. Two goroutines that meet a new key
// together may both compute its share; the value is the same and the
// second insert changes nothing.
type Sender struct {
	g *schnorr.Group
	// k is the long-lived secret exponent. share is its only reader.
	k *big.Int
	c *big.Int // g^k, the ciphertext of every encapsulation

	mu sync.Mutex
	// cur and old map a recipient key's fixed-width encoding to its KEK;
	// each holds at most gen entries. Only validated keys are inserted.
	cur, old map[string][KEKLen]byte
	gen      int

	cached, computed atomic.Uint64
}

// NewSender draws the sender's ephemeral pair from random (through the
// group's nonce source, as Encap does).
func NewSender(g *schnorr.Group, random io.Reader) (*Sender, error) {
	if g == nil {
		return nil, errors.New("dlkem: nil group")
	}
	nonce, err := g.Nonce(random)
	if err != nil {
		return nil, fmt.Errorf("dlkem: %w", err)
	}
	return &Sender{
		g:   g,
		k:   nonce.K,
		c:   nonce.R,
		cur: make(map[string][KEKLen]byte),
		gen: senderCapacity / 2,
	}, nil
}

// Encap encapsulates to public key y. The ciphertext is the sender's
// fixed group element (encoded afresh, so the caller owns it); the KEK is looked up, or — the
// first time this sender sees y — y is validated exactly as Encap
// validates it, y^k computed, the KEK derived and remembered. A key that
// fails validation fails it on every presentation and is never stored.
func (s *Sender) Encap(y *big.Int) (ct, kek []byte, err error) {
	// Only a value in [0, p) has a fixed-width encoding to look up; any
	// other goes straight to the validation that refuses it.
	var key []byte
	if y != nil && y.Sign() >= 0 && y.Cmp(s.g.P) < 0 {
		key = s.g.EncodeElement(y)
		if hit, ok := s.lookup(key); ok {
			s.cached.Add(1)
			return s.g.EncodeElement(s.c), hit[:], nil
		}
	}
	if err := s.g.ValidatePublicKey(y); err != nil {
		return nil, nil, fmt.Errorf("dlkem: recipient key: %w", err)
	}
	shared, err := s.share(y, rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	kek, err = deriveKEK(s.g, s.c, shared)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	s.insertLocked(string(key), [KEKLen]byte(kek))
	s.mu.Unlock()
	s.computed.Add(1)
	return s.g.EncodeElement(s.c), kek, nil
}

// Stats reports how many encapsulations were answered from the cache and
// how many computed a share.
func (s *Sender) Stats() (cached, computed uint64) {
	return s.cached.Load(), s.computed.Load()
}

// share computes y^k for a validated y. It is the only code that reads
// s.k, and the exponent it hands to the exponentiation is never k itself
// but k + r·q under a fresh r from blind — the same group element, since
// y has order q, with a bit pattern that differs on every call (Invariant
// 1 of docs/crypto.md: a long-lived secret exponent is always blinded).
// Unlike ExpG it does not fall back to the bare exponent when blind
// fails: a share that cannot be blinded is not computed.
func (s *Sender) share(y *big.Int, blind io.Reader) (*big.Int, error) {
	var rb [shareBlindBits / 8]byte
	if _, err := io.ReadFull(blind, rb[:]); err != nil {
		return nil, fmt.Errorf("dlkem: exponent blinding: %w", err)
	}
	e := new(big.Int).SetBytes(rb[:])
	e.Mul(e, s.g.Q).Add(e, s.k)
	return e.Exp(y, e, s.g.P), nil
}

// lookup finds key in either generation; a hit in the old one is carried
// into the current one, which is what lets a recipient that keeps coming
// back outlive any number of keys seen once.
func (s *Sender) lookup(key []byte) ([KEKLen]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if kek, ok := s.cur[string(key)]; ok {
		return kek, true
	}
	kek, ok := s.old[string(key)]
	if ok {
		s.insertLocked(string(key), kek)
	}
	return kek, ok
}

// insertLocked stores key in the current generation, retiring the old
// generation first when the current one is full: at most 2·gen entries
// are ever held.
func (s *Sender) insertLocked(key string, kek [KEKLen]byte) {
	if _, ok := s.cur[key]; !ok && len(s.cur) >= s.gen {
		s.old, s.cur = s.cur, make(map[string][KEKLen]byte, s.gen)
	}
	s.cur[key] = kek
}
