// Package bloom implements the salted Bloom filter a device holds as its
// copy of the revocation list: a negative answer ("serial not revoked")
// is exact and costs a few hashes; a positive answer is wrong at the
// filter's design rate. The salt is part of the filter, so two filters
// over the same serials with different salts wrong different serials.
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// SaltSize is the length of a filter's salt.
const SaltSize = 16

// headerSize is the encoding's m[8] | k[4] | n[8] | salt[16].
const headerSize = 20 + SaltSize

// Filter is a fixed-size Bloom filter. The zero value is not usable; build
// one with New or NewWithEstimates.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    uint32 // number of hash functions
	n    uint64 // elements added
	salt [SaltSize]byte
	// seedHi and seedLo are the FNV-128a state after the salt: every
	// digest starts there, so the salt costs nothing per lookup.
	seedHi, seedLo uint64
}

// New creates a filter with m bits and k hash functions under salt.
func New(m uint64, k uint32, salt [SaltSize]byte) (*Filter, error) {
	if m == 0 || k == 0 {
		return nil, errors.New("bloom: m and k must be positive")
	}
	f := &Filter{bits: make([]uint64, (m+63)/64), m: m, k: k, salt: salt}
	f.seedHi, f.seedLo = fnv128a(fnvOffsetHigh, fnvOffsetLow, salt[:])
	return f, nil
}

// NewWithEstimates sizes the filter for n expected elements at
// false-positive rate fp using the textbook optima
// m = -n·ln(fp)/ln2², k = m/n·ln2.
func NewWithEstimates(n uint64, fp float64, salt [SaltSize]byte) (*Filter, error) {
	if n == 0 {
		return nil, errors.New("bloom: expected elements must be positive")
	}
	if fp <= 0 || fp >= 1 {
		return nil, fmt.Errorf("bloom: false-positive rate %v out of (0,1)", fp)
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)))
	if m == 0 {
		m = 64
	}
	k := uint32(math.Round(float64(m) / float64(n) * math.Ln2))
	if k == 0 {
		k = 1
	}
	return New(m, k, salt)
}

// FNV-128a parameters, as hash/fnv defines them: the offset basis split
// into its high and low words, and the prime 2^88 + 2^8 + 0x3b as its
// low word plus the shift of its 2^88 term into the high word.
const (
	fnvOffsetHigh = 0x6c62272e07bb0142
	fnvOffsetLow  = 0x62b821756295c58d
	fnvPrimeLow   = 0x13b
	fnvPrimeShift = 24
)

// fnv128a continues an FNV-128a digest whose state is (hi, lo) over
// data: hash/fnv's arithmetic, without its two allocations.
func fnv128a(hi, lo uint64, data []byte) (uint64, uint64) {
	for _, c := range data {
		lo ^= uint64(c)
		h, l := bits.Mul64(fnvPrimeLow, lo)
		hi = h + lo<<fnvPrimeShift + fnvPrimeLow*hi
		lo = l
	}
	return hi, lo
}

// indexes derives the k bit positions for data using double hashing
// (Kirsch–Mitzenmacher): h_i = h1 + i·h2, where h1 and h2 are the high
// and low halves of the FNV-128a digest of salt ‖ data. The digest is
// part of the wire format: a device decodes a filter with this package
// and must derive the very bits the provider set.
func (f *Filter) indexes(data []byte) (uint64, uint64) {
	hi, lo := fnv128a(f.seedHi, f.seedLo, data)
	return hi, lo | 1 // h2 odd so it cycles all residues
}

// Add inserts data into the filter.
func (f *Filter) Add(data []byte) {
	h1, h2 := f.indexes(data)
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.n++
}

// Contains reports whether data may have been added. False means
// definitely not present; true means present with probability
// 1 - EstimatedFalsePositiveRate.
func (f *Filter) Contains(data []byte) bool {
	h1, h2 := f.indexes(data)
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Count returns the number of Add calls.
func (f *Filter) Count() uint64 { return f.n }

// Bits returns the filter size in bits.
func (f *Filter) Bits() uint64 { return f.m }

// Hashes returns the number of hash functions.
func (f *Filter) Hashes() uint32 { return f.k }

// EstimatedFalsePositiveRate computes (1 - e^{-kn/m})^k for the current
// fill level.
func (f *Filter) EstimatedFalsePositiveRate() float64 {
	if f.n == 0 {
		return 0
	}
	exp := -float64(f.k) * float64(f.n) / float64(f.m)
	return math.Pow(1-math.Exp(exp), float64(f.k))
}

// Marshal serialises the filter:
//
//	m[8] | k[4] | n[8] | salt[16] | words...
func (f *Filter) Marshal() []byte {
	out := make([]byte, headerSize+8*len(f.bits))
	binary.BigEndian.PutUint64(out[0:8], f.m)
	binary.BigEndian.PutUint32(out[8:12], f.k)
	binary.BigEndian.PutUint64(out[12:20], f.n)
	copy(out[20:headerSize], f.salt[:])
	for i, w := range f.bits {
		binary.BigEndian.PutUint64(out[headerSize+8*i:], w)
	}
	return out
}

// Unmarshal reconstructs a filter from Marshal output.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < headerSize {
		return nil, errors.New("bloom: truncated encoding")
	}
	m := binary.BigEndian.Uint64(data[0:8])
	k := binary.BigEndian.Uint32(data[8:12])
	n := binary.BigEndian.Uint64(data[12:20])
	// Compared against the bytes present before anything is sized from m:
	// m is untrusted, and m+63 wraps for values near 2^64.
	words := m / 64
	if m%64 != 0 {
		words++
	}
	if have := uint64(len(data) - headerSize); have%8 != 0 || have/8 != words {
		return nil, fmt.Errorf("bloom: %d bytes of words for a %d-bit filter", have, m)
	}
	if uint64(k) > m {
		return nil, fmt.Errorf("bloom: %d hash functions over %d bits", k, m)
	}
	f, err := New(m, k, [SaltSize]byte(data[20:headerSize]))
	if err != nil {
		return nil, err
	}
	f.n = n
	for i := range f.bits {
		f.bits[i] = binary.BigEndian.Uint64(data[headerSize+8*i:])
	}
	return f, nil
}
