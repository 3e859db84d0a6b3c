package envelope

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	mrand "math/rand"
	"sync"
	"testing"
	"testing/quick"
)

var (
	rsaOnce sync.Once
	rsaKey  *rsa.PrivateKey
)

func testRSA(t *testing.T) *rsa.PrivateKey {
	t.Helper()
	rsaOnce.Do(func() {
		var err error
		rsaKey, err = rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
	})
	return rsaKey
}

func mustKey(t *testing.T) []byte {
	t.Helper()
	k, err := NewContentKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSealOpenRoundtrip(t *testing.T) {
	k := mustKey(t)
	pt := []byte("some protected content bytes")
	aad := []byte("content-1|license-9")
	sealed, err := Seal(k, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(k, sealed, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Error("roundtrip mismatch")
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	k := mustKey(t)
	sealed, _ := Seal(k, []byte("payload"), []byte("aad"))
	for _, i := range []int{0, nonceLen, len(sealed) - 1} {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0x80
		if _, err := Open(k, bad, []byte("aad")); err == nil {
			t.Errorf("tampered byte %d accepted", i)
		}
	}
}

func TestOpenRejectsWrongAAD(t *testing.T) {
	k := mustKey(t)
	sealed, _ := Seal(k, []byte("payload"), []byte("aad-1"))
	if _, err := Open(k, sealed, []byte("aad-2")); err == nil {
		t.Error("wrong AAD accepted")
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	k1, k2 := mustKey(t), mustKey(t)
	sealed, _ := Seal(k1, []byte("payload"), nil)
	if _, err := Open(k2, sealed, nil); err == nil {
		t.Error("wrong key accepted")
	}
}

func TestOpenRejectsShortInput(t *testing.T) {
	k := mustKey(t)
	if _, err := Open(k, make([]byte, nonceLen+tagLen-1), nil); err == nil {
		t.Error("short ciphertext accepted")
	}
}

func TestSealEmptyPlaintext(t *testing.T) {
	k := mustKey(t)
	sealed, err := Seal(k, nil, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(k, sealed, []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Error("empty plaintext roundtrip produced data")
	}
}

func TestSealRejectsBadKey(t *testing.T) {
	if _, err := Seal([]byte("short"), []byte("x"), nil); err == nil {
		t.Error("short key accepted")
	}
}

func TestStreamRoundtrip(t *testing.T) {
	k := mustKey(t)
	sizes := []int{0, 1, 100, DefaultChunkSize, DefaultChunkSize + 1, 3*1024 + 17}
	for _, size := range sizes {
		pt := make([]byte, size)
		mrand.New(mrand.NewSource(int64(size))).Read(pt)
		var ct bytes.Buffer
		if err := EncryptStream(&ct, bytes.NewReader(pt), k, int64(size), 1024); err != nil {
			t.Fatalf("size %d: encrypt: %v", size, err)
		}
		var out bytes.Buffer
		if err := DecryptStream(&out, bytes.NewReader(ct.Bytes()), k); err != nil {
			t.Fatalf("size %d: decrypt: %v", size, err)
		}
		if !bytes.Equal(out.Bytes(), pt) {
			t.Fatalf("size %d: roundtrip mismatch", size)
		}
	}
}

func TestStreamRejectsLengthMismatch(t *testing.T) {
	k := mustKey(t)
	var ct bytes.Buffer
	err := EncryptStream(&ct, bytes.NewReader(make([]byte, 10)), k, 11, 4)
	if err == nil {
		t.Error("declared-length mismatch accepted")
	}
}

func TestStreamRejectsChunkReorder(t *testing.T) {
	k := mustKey(t)
	pt := make([]byte, 2048) // 2 chunks of 1024
	for i := range pt {
		pt[i] = byte(i)
	}
	var ct bytes.Buffer
	if err := EncryptStream(&ct, bytes.NewReader(pt), k, int64(len(pt)), 1024); err != nil {
		t.Fatal(err)
	}
	raw := ct.Bytes()
	chunkLen := nonceLen + 1024 + tagLen
	hdr := raw[:streamHeaderLen]
	c0 := raw[streamHeaderLen : streamHeaderLen+chunkLen]
	c1 := raw[streamHeaderLen+chunkLen:]
	swapped := append(append(append([]byte(nil), hdr...), c1...), c0...)
	var out bytes.Buffer
	if err := DecryptStream(&out, bytes.NewReader(swapped), k); err == nil {
		t.Error("reordered chunks accepted")
	}
}

func TestStreamRejectsTruncation(t *testing.T) {
	k := mustKey(t)
	pt := make([]byte, 2048)
	var ct bytes.Buffer
	if err := EncryptStream(&ct, bytes.NewReader(pt), k, int64(len(pt)), 1024); err != nil {
		t.Fatal(err)
	}
	raw := ct.Bytes()
	var out bytes.Buffer
	if err := DecryptStream(&out, bytes.NewReader(raw[:len(raw)-10]), k); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestStreamRejectsTrailingGarbage(t *testing.T) {
	k := mustKey(t)
	pt := make([]byte, 100)
	var ct bytes.Buffer
	if err := EncryptStream(&ct, bytes.NewReader(pt), k, int64(len(pt)), 1024); err != nil {
		t.Fatal(err)
	}
	raw := append(ct.Bytes(), 0xAA)
	var out bytes.Buffer
	if err := DecryptStream(&out, bytes.NewReader(raw), k); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestStreamRejectsBadMagicAndVersion(t *testing.T) {
	k := mustKey(t)
	var ct bytes.Buffer
	if err := EncryptStream(&ct, bytes.NewReader(nil), k, 0, 16); err != nil {
		t.Fatal(err)
	}
	raw := ct.Bytes()

	badMagic := append([]byte(nil), raw...)
	badMagic[0] = 'X'
	if err := DecryptStream(&bytes.Buffer{}, bytes.NewReader(badMagic), k); err == nil {
		t.Error("bad magic accepted")
	}
	badVer := append([]byte(nil), raw...)
	badVer[4] = 99
	if err := DecryptStream(&bytes.Buffer{}, bytes.NewReader(badVer), k); err == nil {
		t.Error("bad version accepted")
	}
}

func TestStreamCrossKeySpliceRejected(t *testing.T) {
	// A chunk sealed under stream A's header must not decrypt inside
	// stream B even when both use the same content key.
	k := mustKey(t)
	mk := func(fill byte, chunk int) []byte {
		pt := bytes.Repeat([]byte{fill}, 512)
		var ct bytes.Buffer
		if err := EncryptStream(&ct, bytes.NewReader(pt), k, 512, chunk); err != nil {
			t.Fatal(err)
		}
		return ct.Bytes()
	}
	a := mk(1, 256) // 2 chunks, chunkSize 256
	b := mk(2, 512) // 1 chunk, chunkSize 512 → different header
	chunkLenA := nonceLen + 256 + tagLen
	spliced := append([]byte(nil), b[:streamHeaderLen]...)
	spliced = append(spliced, a[streamHeaderLen:streamHeaderLen+chunkLenA]...)
	spliced = append(spliced, a[streamHeaderLen:streamHeaderLen+chunkLenA]...)
	if err := DecryptStream(&bytes.Buffer{}, bytes.NewReader(spliced), k); err == nil {
		t.Error("cross-stream splice accepted")
	}
}

// Property: Seal/Open roundtrips for arbitrary payloads and AAD.
func TestQuickSealOpen(t *testing.T) {
	k := mustKey(t)
	cfg := &quick.Config{MaxCount: 50, Rand: mrand.New(mrand.NewSource(6))}
	f := func(pt, aad []byte) bool {
		sealed, err := Seal(k, pt, aad)
		if err != nil {
			return false
		}
		got, err := Open(k, sealed, aad)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: ciphertext never equals plaintext for non-trivial messages
// (sanity check that encryption is happening).
func TestQuickCiphertextDiffers(t *testing.T) {
	k := mustKey(t)
	cfg := &quick.Config{MaxCount: 30, Rand: mrand.New(mrand.NewSource(7))}
	f := func(pt []byte) bool {
		if len(pt) < 8 {
			return true
		}
		sealed, err := Seal(k, pt, nil)
		if err != nil {
			return false
		}
		return !bytes.Contains(sealed, pt)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
