package license

import (
	"encoding/binary"
	"errors"
	"fmt"

	"p2drm/internal/merkle"
)

// Binary codec helpers. All license encodings are canonical: fixed field
// order, length-prefixed variable fields, big-endian integers. Canonical
// bytes are what providers sign, so any codec ambiguity would be a
// signature-forgery surface.

type writer struct {
	buf []byte
}

func (w *writer) byte(b byte) { w.buf = append(w.buf, b) }

func (w *writer) u32(v uint32) {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], v)
	w.buf = append(w.buf, tmp[:]...)
}

func (w *writer) u64(v uint64) {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], v)
	w.buf = append(w.buf, tmp[:]...)
}

func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *writer) str(s string) { w.bytes([]byte(s)) }

type reader struct {
	buf []byte
	off int
	err error
}

var errTruncated = errors.New("license: truncated encoding")

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(errTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.fail(errTruncated)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail(errTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

const maxField = 1 << 24

func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if n > maxField {
		r.fail(fmt.Errorf("license: field length %d exceeds limit", n))
		return nil
	}
	if r.off+int(n) > len(r.buf) {
		r.fail(errTruncated)
		return nil
	}
	b := append([]byte(nil), r.buf[r.off:r.off+int(n)]...)
	r.off += int(n)
	return b
}

func (r *reader) str() string { return string(r.bytes()) }

// path reads a license's Merkle path in merkle's own proof encoding,
// which states its length; one that no Sign call can have produced is
// refused here, unread.
func (r *reader) path() merkle.Proof {
	if r.err != nil {
		return merkle.Proof{}
	}
	p, rest, err := merkle.ReadProof(r.buf[r.off:], MaxPathLen)
	if err != nil {
		r.fail(fmt.Errorf("license: path: %w", err))
		return merkle.Proof{}
	}
	if err := checkPath(p); err != nil {
		r.fail(err)
		return merkle.Proof{}
	}
	r.off = len(r.buf) - len(rest)
	return *p
}

// done checks the whole input was consumed (trailing bytes would let two
// distinct encodings share a prefix, breaking signature canonicality).
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return errors.New("license: trailing bytes after encoding")
	}
	return nil
}
