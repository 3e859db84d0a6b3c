// Package fuse implements the salted binary fuse filter a device holds as
// its copy of the revocation list (Graf & Lemire, "Binary Fuse Filters:
// Fast and Smaller Than Xor Filters", ACM JEA 2022): a static 3-wise
// filter with 14-bit fingerprints. A negative answer ("serial not
// revoked") is exact; a positive answer is wrong with probability 2⁻¹⁴.
// The salt is part of the filter, so two filters over the same keys with
// different salts wrong different keys.
//
// The encoding is the filter: Unmarshal checks it and keeps a view of
// it, and a lookup is one salted hash plus three reads of packed
// fingerprints from those bytes.
package fuse

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// saltSize is the length of a filter's salt.
const saltSize = 16

// fingerprintBits is the width of one packed fingerprint; a key outside
// the set tests positive with probability 2^-fingerprintBits.
const fingerprintBits = 14

const fingerprintMask = 1<<fingerprintBits - 1

// headerSize is the encoding's n[8] | seg_len[4] | seg_count[4] | salt[16].
const headerSize = 16 + saltSize

// maxSegmentBits caps the segment length at 2^18, as the paper does.
const maxSegmentBits = 18

// maxKeys bounds what Build accepts, so every cell index fits a uint32.
const maxKeys = 1 << 30

// maxAttempts bounds the salts Build tries. A peel of distinct keys fails
// far less often than once in maxAttempts; keys that never peel (a
// duplicate, or two keys with one 64-bit hash under every salt) fail every
// attempt.
const maxAttempts = 16

// Filter is a binary fuse filter read in place from its encoding. It is
// immutable and safe for concurrent lookups.
type Filter struct {
	enc    []byte // the whole encoding
	fps    []byte // enc's packed fingerprints
	n      uint64
	segLen uint32
	// segCountLength is segment count × segment length: the range the
	// first position is drawn from.
	segCountLength uint64
	// seed is the FNV-1a state after the salt: every key's hash starts
	// there, so the salt costs nothing per lookup.
	seed uint64
}

// Geometry returns the segment length and count the paper's sizing rule
// gives n keys: segment length 2^⌊ln n / ln 3.33 + 2.25⌋ (at most 2^18),
// and enough segments for n·max(1.125, 0.875 + 0.25·ln 10⁶ / ln n)
// cells. A key's three cells lie in three consecutive segments, the
// first among the first segCount, so the filter holds segCount+2
// segments. An empty set has no segments.
func Geometry(n uint64) (segLen, segCount uint32) {
	if n == 0 {
		return 0, 0
	}
	size := float64(n)
	segLen = 1 << min(int(math.Floor(math.Log(size)/math.Log(3.33)+2.25)), maxSegmentBits)
	capacity := 0.0
	if n > 1 {
		capacity = math.Round(size * math.Max(1.125, 0.875+0.25*math.Log(1e6)/math.Log(size)))
	}
	segs := uint32(math.Ceil(capacity / float64(segLen)))
	if segs <= 2 {
		return segLen, 1
	}
	return segLen, segs - 2
}

// cells is the number of fingerprints a geometry holds; the empty
// geometry holds none.
func cells(segLen, segCount uint32) uint64 { return (uint64(segCount) + 2) * uint64(segLen) }

// packedLen is the number of bytes that hold c packed fingerprints.
func packedLen(c uint64) uint64 { return (c*fingerprintBits + 7) / 8 }

// Build returns a filter holding keys, under a salt drawn from random. A
// peel that fails draws a new salt, up to maxAttempts times; keys that
// contain a duplicate fail every attempt and Build returns an error.
func Build(keys [][]byte, random io.Reader) (*Filter, error) {
	n := uint64(len(keys))
	if n > maxKeys {
		return nil, fmt.Errorf("fuse: %d keys, at most %d", n, maxKeys)
	}
	segLen, segCount := Geometry(n)
	c := cells(segLen, segCount)
	enc := make([]byte, headerSize+packedLen(c))
	binary.BigEndian.PutUint64(enc[0:8], n)
	binary.BigEndian.PutUint32(enc[8:12], segLen)
	binary.BigEndian.PutUint32(enc[12:16], segCount)
	f := newFilter(enc, n, segLen, segCount)
	var s *peelBuffers
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if _, err := io.ReadFull(random, enc[16:headerSize]); err != nil {
			return nil, fmt.Errorf("fuse: salt: %w", err)
		}
		f.seed = fnv1a(fnvOffset, enc[16:headerSize])
		if n == 0 {
			return f, nil
		}
		if s == nil {
			s = &peelBuffers{
				count: make([]uint8, c),
				xor:   make([]uint64, c),
				queue: make([]uint32, 0, c),
				stack: make([]peeled, 0, n),
			}
		}
		if f.populate(keys, s) {
			return f, nil
		}
	}
	return nil, fmt.Errorf("fuse: %d keys did not peel under %d salts (duplicate keys?)", n, maxAttempts)
}

// peelBuffers is what a peel works in, reused across attempts.
type peelBuffers struct {
	// count holds, per cell, the number of keys mapped to it times 4,
	// plus in its low two bits the XOR of which of their three positions
	// (0, 1 or 2) the cell is; xor holds the XOR of their hashes. A cell
	// with one key names that key and its slot.
	count []uint8
	xor   []uint64
	queue []uint32 // cells found holding one key
	stack []peeled // keys in peel order
}

// peeled is a key, by its hash, and the slot of the cell it was peeled
// from: the cell whose fingerprint it sets.
type peeled struct {
	hash uint64
	slot uint8
}

// populate maps every key to its three cells, peels keys off cells that
// hold one key until none is left, and assigns the fingerprints in the
// reverse order. It reports false, leaving f's fingerprints unspecified,
// when some keys do not peel.
func (f *Filter) populate(keys [][]byte, s *peelBuffers) bool {
	clear(s.count)
	clear(s.xor)
	clear(f.fps)
	for _, k := range keys {
		h := f.hash(k)
		for slot, p := range f.positions(h) {
			c := s.count[p] + 4
			if c < 4 {
				return false // more than 63 keys in one cell
			}
			s.count[p] = c ^ uint8(slot)
			s.xor[p] ^= h
		}
	}
	queue := s.queue[:0]
	for p, c := range s.count {
		if c>>2 == 1 {
			queue = append(queue, uint32(p))
		}
	}
	stack := s.stack[:0]
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if s.count[p]>>2 != 1 {
			continue // emptied since it was queued
		}
		h := s.xor[p]
		stack = append(stack, peeled{hash: h, slot: s.count[p] & 3})
		for slot, q := range f.positions(h) {
			s.count[q] = (s.count[q] - 4) ^ uint8(slot)
			s.xor[q] ^= h
			if s.count[q]>>2 == 1 {
				queue = append(queue, q)
			}
		}
	}
	if uint64(len(stack)) != f.n {
		return false
	}
	// Each cell is the peel cell of one key at most, so it is still zero
	// when its key sets it, and XORing all three cells reads the other two.
	for i := len(stack) - 1; i >= 0; i-- {
		e := stack[i]
		pos := f.positions(e.hash)
		v := fingerprint(e.hash) ^ f.at(pos[0]) ^ f.at(pos[1]) ^ f.at(pos[2])
		f.set(pos[e.slot], v)
	}
	return true
}

func newFilter(enc []byte, n uint64, segLen, segCount uint32) *Filter {
	return &Filter{
		enc:            enc,
		fps:            enc[headerSize:len(enc):len(enc)],
		n:              n,
		segLen:         segLen,
		segCountLength: uint64(segCount) * uint64(segLen),
		seed:           fnv1a(fnvOffset, enc[16:headerSize]),
	}
}

// Unmarshal checks an encoding and returns the filter it holds, which
// reads the encoding in place: data must not change while the filter is
// in use. The geometry is untrusted until it is checked against the byte
// length, so no lookup reads outside data.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < headerSize {
		return nil, errors.New("fuse: truncated encoding")
	}
	n := binary.BigEndian.Uint64(data[0:8])
	segLen := binary.BigEndian.Uint32(data[8:12])
	segCount := binary.BigEndian.Uint32(data[12:16])
	if n == 0 && (segLen != 0 || segCount != 0) {
		return nil, fmt.Errorf("fuse: empty filter with %d segments of %d", segCount, segLen)
	}
	if n > 0 && (segLen == 0 || segLen&(segLen-1) != 0 || segLen > 1<<maxSegmentBits || segCount == 0) {
		return nil, fmt.Errorf("fuse: %d segments of %d for %d keys", segCount, segLen, n)
	}
	c := cells(segLen, segCount)
	if c > math.MaxUint32 || n > c {
		return nil, fmt.Errorf("fuse: %d keys in %d cells", n, c)
	}
	if have := uint64(len(data) - headerSize); have != packedLen(c) {
		return nil, fmt.Errorf("fuse: %d bytes of fingerprints for %d cells", have, c)
	}
	return newFilter(data, n, segLen, segCount), nil
}

// Marshal returns the filter's encoding, which the filter reads in place:
// treat it as read-only.
//
//	n[8] | seg_len[4] | seg_count[4] | salt[16] | fingerprints
//
// The integers are big-endian. Fingerprint i is bits 14i to 14i+13 of
// the little-endian bit string the fingerprint bytes make, and the last
// byte is padded with zero bits.
func (f *Filter) Marshal() []byte { return f.enc }

// Count returns the number of keys the filter was built from.
func (f *Filter) Count() uint64 { return f.n }

// SegmentLength returns the filter's segment length.
func (f *Filter) SegmentLength() uint32 { return f.segLen }

// SegmentCount returns the number of segments a key's first position
// falls in.
func (f *Filter) SegmentCount() uint32 { return binary.BigEndian.Uint32(f.enc[12:16]) }

// Contains reports whether data may be one of the filter's keys. False
// means definitely not; true is wrong for a key outside the set with
// probability 2⁻¹⁴. A filter of no keys contains nothing.
func (f *Filter) Contains(data []byte) bool {
	if f.n == 0 {
		return false
	}
	h := f.hash(data)
	pos := f.positions(h)
	return fingerprint(h) == f.at(pos[0])^f.at(pos[1])^f.at(pos[2])
}

// FNV-1a-64 parameters, as hash/fnv defines them.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// fnv1a continues an FNV-1a-64 digest whose state is h over data.
func fnv1a(h uint64, data []byte) uint64 {
	for _, c := range data {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// fmix64 is murmur3's 64-bit finalizer. FNV-1a carries each input bit
// only towards higher bits, so its low bits depend on few input bits,
// and the positions read both ends of the hash.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hash is fmix64 of the FNV-1a-64 digest of salt ‖ data. It is part of
// the wire format: a device reads the provider's filter with this package
// and must derive the very cells the provider set.
func (f *Filter) hash(data []byte) uint64 { return fmix64(fnv1a(f.seed, data)) }

// positions are a hash's three cells: the first in the segment its high
// bits select, the others at the same offset in the next two segments,
// each with its low bits XORed by another slice of the hash.
func (f *Filter) positions(h uint64) [3]uint32 {
	hi, _ := bits.Mul64(h, f.segCountLength)
	mask := uint64(f.segLen - 1)
	p1 := (hi + uint64(f.segLen)) ^ ((h >> 18) & mask)
	p2 := (hi + 2*uint64(f.segLen)) ^ (h & mask)
	return [3]uint32{uint32(hi), uint32(p1), uint32(p2)}
}

// fingerprint is the 14-bit fingerprint of a hash.
func fingerprint(h uint64) uint16 { return uint16(h^h>>32) & fingerprintMask }

// at reads fingerprint i. Its bits span two bytes, or three when they
// start past bit 2 of the first; the third byte then exists, as the
// fingerprint ends in it.
func (f *Filter) at(i uint32) uint16 {
	bit := uint64(i) * fingerprintBits
	b := f.fps[bit>>3:]
	v := uint32(b[0]) | uint32(b[1])<<8
	if len(b) > 2 {
		v |= uint32(b[2]) << 16
	}
	return uint16(v>>(bit&7)) & fingerprintMask
}

// set writes fingerprint i.
func (f *Filter) set(i uint32, v uint16) {
	bit := uint64(i) * fingerprintBits
	b := f.fps[bit>>3:]
	shift := bit & 7
	w, m := uint32(v)<<shift, uint32(fingerprintMask)<<shift
	b[0] = b[0]&^byte(m) | byte(w)
	b[1] = b[1]&^byte(m>>8) | byte(w>>8)
	if m>>16 != 0 {
		b[2] = b[2]&^byte(m>>16) | byte(w>>16)
	}
}
