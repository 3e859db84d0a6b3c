package license

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"

	"p2drm/internal/cryptox/dlkem"
	"p2drm/internal/cryptox/envelope"
)

func testSender(t *testing.T) *dlkem.Sender {
	t.Helper()
	s, err := dlkem.NewSender(testGroup(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Two wraps from one sender to one recipient were sealed under the SAME
// KEK (equal KEM bytes decapsulate to it). What keeps them two wraps is
// the seal: different ciphertexts, each opening under its own label only.
// Moving a SealedKey into the other license's wrap — which the shared KEM
// makes look plausible — is refused by the label AAD.
func TestSenderWrapsShareKEKButDoNotTransplant(t *testing.T) {
	g, s, p := testGroup(), testSender(t), newPseudonym(t)
	key := testContentKey(t)
	serialA, _ := NewSerial()
	serialB, _ := NewSerial()
	labelA := WrapLabelPersonalized(serialA, "song-1")
	labelB := WrapLabelPersonalized(serialB, "song-1")

	a, err := WrapKeyFrom(s, p.enc.Y, key, labelA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WrapKeyFrom(s, p.enc.Y, key, labelB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.KEM, b.KEM) {
		t.Fatal("one sender produced two different KEM elements")
	}
	if bytes.Equal(a.SealedKey, b.SealedKey) {
		t.Fatal("same key, same KEK, same ciphertext: the seal is deterministic")
	}
	// Even with the label equal too, the seal's own nonce separates them.
	a2, err := WrapKeyFrom(s, p.enc.Y, key, labelA)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.SealedKey, a2.SealedKey) {
		t.Error("two seals of one key under one KEK and one label are identical")
	}

	for _, c := range []struct {
		name  string
		kw    KeyWrap
		label []byte
		ok    bool
	}{
		{"A under A", a, labelA, true},
		{"B under B", b, labelB, true},
		{"A under B", a, labelB, false},
		{"B under A", b, labelA, false},
		{"B's seal in A's wrap", KeyWrap{KEM: a.KEM, SealedKey: b.SealedKey}, labelA, false},
		{"A's seal in B's wrap", KeyWrap{KEM: b.KEM, SealedKey: a.SealedKey}, labelB, false},
	} {
		got, err := c.kw.Unwrap(g, p.enc.X, c.label)
		switch {
		case c.ok && (err != nil || !bytes.Equal(got, key)):
			t.Errorf("%s: %v", c.name, err)
		case !c.ok && !errors.Is(err, envelope.ErrAuth):
			t.Errorf("%s: err = %v, want an authentication failure", c.name, err)
		}
	}
}

// A wrap from the sender and a one-shot wrap are the same thing to the
// holder: both open with the one Unwrap, and a stranger opens neither.
func TestSenderWrapIsAnOrdinaryWrap(t *testing.T) {
	g, s := testGroup(), testSender(t)
	p, other := newPseudonym(t), newPseudonym(t)
	key, label := testContentKey(t), []byte("ctx")
	fromSender, err := WrapKeyFrom(s, p.enc.Y, key, label)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := WrapKey(g, p.enc.Y, key, label)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromSender.KEM) != len(oneShot.KEM) || len(fromSender.SealedKey) != len(oneShot.SealedKey) {
		t.Error("the two wraps differ in shape")
	}
	for name, kw := range map[string]KeyWrap{"sender": fromSender, "one-shot": oneShot} {
		if got, err := kw.Unwrap(g, p.enc.X, label); err != nil || !bytes.Equal(got, key) {
			t.Errorf("%s wrap does not open for its holder: %v", name, err)
		}
		if _, err := kw.Unwrap(g, other.enc.X, label); err == nil {
			t.Errorf("%s wrap opened for a stranger", name)
		}
	}
	if _, err := WrapKeyFrom(s, g.P, key, label); err == nil {
		t.Error("wrap to an invalid recipient key")
	}
}
