// Package envelope implements the hybrid encryption used for content and
// content keys in P2DRM.
//
// Two layers:
//
//   - Content is encrypted once under a random 256-bit content key using
//     AES-256-CTR with an HMAC-SHA256 tag (encrypt-then-MAC), chunked so
//     devices can decrypt large items in bounded memory and seek to chunk
//     boundaries.
//   - A short message is sealed whole under the same construction
//     (Seal/Open). license.WrapKey seals each licence's content key this
//     way under a key-encryption key from the dlkem KEM, so possession of
//     the licence holder's key is possession of the content key.
//
// AES-GCM would do for the short path, but CTR+HMAC is written out here
// for the streaming path to keep the construction explicit and auditable,
// per the reproduction's hand-rolled-primitives mandate.
package envelope

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"p2drm/internal/cryptox/kdf"
)

const (
	// KeyLen is the content key length (AES-256).
	KeyLen = 32
	// nonceLen is the per-message CTR nonce length.
	nonceLen = 16
	// tagLen is the HMAC-SHA256 truncation (full length).
	tagLen = 32
	// DefaultChunkSize bounds device memory during streaming decryption.
	DefaultChunkSize = 64 * 1024
)

var (
	// ErrAuth is returned when a ciphertext fails authentication.
	ErrAuth = errors.New("envelope: message authentication failed")
	// ErrFormat is returned for structurally invalid ciphertexts.
	ErrFormat = errors.New("envelope: malformed ciphertext")
)

// NewContentKey draws a fresh random content key.
func NewContentKey() ([]byte, error) {
	k := make([]byte, KeyLen)
	if _, err := io.ReadFull(rand.Reader, k); err != nil {
		return nil, fmt.Errorf("envelope: keygen: %w", err)
	}
	return k, nil
}

// deriveKeys splits the content key into independent cipher and MAC keys.
func deriveKeys(contentKey []byte) (encKey, macKey []byte, err error) {
	if len(contentKey) != KeyLen {
		return nil, nil, fmt.Errorf("envelope: content key must be %d bytes", KeyLen)
	}
	encKey, err = kdf.SubKey(contentKey, "content-enc", KeyLen)
	if err != nil {
		return nil, nil, err
	}
	macKey, err = kdf.SubKey(contentKey, "content-mac", KeyLen)
	if err != nil {
		return nil, nil, err
	}
	return encKey, macKey, nil
}

// Seal encrypts plaintext under contentKey with AES-256-CTR and appends an
// HMAC-SHA256 tag over (aad, nonce, ciphertext). Layout:
//
//	nonce[16] || ciphertext || tag[32]
func Seal(contentKey, plaintext, aad []byte) ([]byte, error) {
	encKey, macKey, err := deriveKeys(contentKey)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, nonceLen)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("envelope: nonce: %w", err)
	}
	block, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	out := make([]byte, nonceLen+len(plaintext)+tagLen)
	copy(out, nonce)
	cipher.NewCTR(block, nonce).XORKeyStream(out[nonceLen:nonceLen+len(plaintext)], plaintext)
	tag := computeTag(macKey, aad, nonce, out[nonceLen:nonceLen+len(plaintext)])
	copy(out[nonceLen+len(plaintext):], tag)
	return out, nil
}

// Open authenticates and decrypts a Seal ciphertext.
func Open(contentKey, sealed, aad []byte) ([]byte, error) {
	encKey, macKey, err := deriveKeys(contentKey)
	if err != nil {
		return nil, err
	}
	if len(sealed) < nonceLen+tagLen {
		return nil, ErrFormat
	}
	nonce := sealed[:nonceLen]
	ct := sealed[nonceLen : len(sealed)-tagLen]
	tag := sealed[len(sealed)-tagLen:]
	want := computeTag(macKey, aad, nonce, ct)
	if !hmac.Equal(tag, want) {
		return nil, ErrAuth
	}
	block, err := aes.NewCipher(encKey)
	if err != nil {
		return nil, err
	}
	pt := make([]byte, len(ct))
	cipher.NewCTR(block, nonce).XORKeyStream(pt, ct)
	return pt, nil
}

func computeTag(macKey, aad, nonce, ct []byte) []byte {
	m := hmac.New(sha256.New, macKey)
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(aad)))
	m.Write(hdr[:])
	m.Write(aad)
	m.Write(nonce)
	m.Write(ct)
	return m.Sum(nil)
}

// Stream format
//
// A streamed item is a header followed by independently sealed chunks:
//
//	magic[4] "P2DS" | version[1] | chunkSize[4] | contentLen[8]
//	chunk_0 ... chunk_{n-1}
//
// Each chunk is sealed with AAD = header || chunkIndex, which pins every
// chunk to its position: chunks cannot be reordered, dropped, duplicated
// or spliced between streams without detection.

var streamMagic = [4]byte{'P', '2', 'D', 'S'}

const streamVersion = 1
const streamHeaderLen = 4 + 1 + 4 + 8

// EncryptStream encrypts r to w under contentKey. contentLen must be the
// exact plaintext length (known from the catalog record).
func EncryptStream(w io.Writer, r io.Reader, contentKey []byte, contentLen int64, chunkSize int) error {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if contentLen < 0 {
		return errors.New("envelope: negative content length")
	}
	hdr := make([]byte, streamHeaderLen)
	copy(hdr, streamMagic[:])
	hdr[4] = streamVersion
	binary.BigEndian.PutUint32(hdr[5:9], uint32(chunkSize))
	binary.BigEndian.PutUint64(hdr[9:], uint64(contentLen))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, chunkSize)
	var index uint64
	var total int64
	for {
		n, err := io.ReadFull(r, buf)
		if n > 0 {
			total += int64(n)
			sealed, serr := Seal(contentKey, buf[:n], chunkAAD(hdr, index))
			if serr != nil {
				return serr
			}
			if _, werr := w.Write(sealed); werr != nil {
				return werr
			}
			index++
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if total != contentLen {
		return fmt.Errorf("envelope: content length mismatch: declared %d, read %d", contentLen, total)
	}
	return nil
}

// DecryptStream authenticates and decrypts a stream produced by
// EncryptStream, writing plaintext to w.
func DecryptStream(w io.Writer, r io.Reader, contentKey []byte) error {
	hdr := make([]byte, streamHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("envelope: stream header: %w", err)
	}
	if !bytes.Equal(hdr[:4], streamMagic[:]) {
		return ErrFormat
	}
	if hdr[4] != streamVersion {
		return fmt.Errorf("envelope: unsupported stream version %d", hdr[4])
	}
	chunkSize := int(binary.BigEndian.Uint32(hdr[5:9]))
	contentLen := int64(binary.BigEndian.Uint64(hdr[9:]))
	if chunkSize <= 0 {
		return ErrFormat
	}
	sealedChunk := make([]byte, nonceLen+chunkSize+tagLen)
	var index uint64
	remaining := contentLen
	for remaining > 0 {
		want := int64(chunkSize)
		if remaining < want {
			want = remaining
		}
		sealedLen := nonceLen + int(want) + tagLen
		if _, err := io.ReadFull(r, sealedChunk[:sealedLen]); err != nil {
			return fmt.Errorf("envelope: truncated stream at chunk %d: %w", index, err)
		}
		pt, err := Open(contentKey, sealedChunk[:sealedLen], chunkAAD(hdr, index))
		if err != nil {
			return fmt.Errorf("envelope: chunk %d: %w", index, err)
		}
		if _, err := w.Write(pt); err != nil {
			return err
		}
		remaining -= want
		index++
	}
	// Any trailing garbage is an error: the stream length is authenticated
	// by the per-chunk AAD binding to the header.
	var tail [1]byte
	if n, _ := r.Read(tail[:]); n != 0 {
		return fmt.Errorf("envelope: %w: trailing data after final chunk", ErrFormat)
	}
	return nil
}

func chunkAAD(hdr []byte, index uint64) []byte {
	aad := make([]byte, len(hdr)+8)
	copy(aad, hdr)
	binary.BigEndian.PutUint64(aad[len(hdr):], index)
	return aad
}
