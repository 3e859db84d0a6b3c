package license

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"

	mrand "math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/rel"
)

var (
	signerOnce sync.Once
	rsaSigner  *rsablind.Signer
)

func testProvider(t testing.TB) *rsablind.Signer {
	t.Helper()
	signerOnce.Do(func() {
		key, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
		rsaSigner, err = rsablind.NewSigner(key)
		if err != nil {
			panic(err)
		}
	})
	return rsaSigner
}

func testGroup() *schnorr.Group { return schnorr.Group768() }

type pseudonym struct {
	sign *schnorr.PrivateKey
	enc  *schnorr.PrivateKey
}

func newPseudonym(t testing.TB) *pseudonym {
	t.Helper()
	s, err := schnorr.GenerateKey(testGroup(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	e, err := schnorr.GenerateKey(testGroup(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return &pseudonym{sign: s, enc: e}
}

var testRights = rel.MustParse(`
grant play count 10;
grant transfer;
delegate allow;
`)

// makePersonalized is a license to p signed alone, the one-leaf case.
func makePersonalized(t *testing.T, p *pseudonym, contentKey []byte) *Personalized {
	t.Helper()
	l := unsignedPersonalized(t, p, contentKey)
	if err := Sign(testProvider(t), l); err != nil {
		t.Fatal(err)
	}
	return l
}

func unsignedPersonalized(t testing.TB, p *pseudonym, contentKey []byte) *Personalized {
	t.Helper()
	serial, err := NewSerial()
	if err != nil {
		t.Fatal(err)
	}
	g := testGroup()
	kw, err := WrapKey(g, p.enc.Y, contentKey, WrapLabelPersonalized(serial, "song-1"))
	if err != nil {
		t.Fatal(err)
	}
	l := &Personalized{
		Serial:     serial,
		ContentID:  "song-1",
		HolderSign: g.EncodeElement(p.sign.Y),
		HolderEnc:  g.EncodeElement(p.enc.Y),
		Rights:     testRights.Clone(),
		KeyWrap:    kw,
		IssuedAt:   time.Date(2004, 6, 1, 12, 0, 0, 0, time.UTC),
	}
	return l
}

func testContentKey(t testing.TB) []byte {
	t.Helper()
	k := make([]byte, 32)
	if _, err := rand.Read(k); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSerialRoundtrip(t *testing.T) {
	s, err := NewSerial()
	if err != nil {
		t.Fatal(err)
	}
	if s.IsZero() {
		t.Error("fresh serial is zero")
	}
	back, err := ParseSerial(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Error("serial roundtrip mismatch")
	}
	if _, err := ParseSerial("zz"); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := ParseSerial("abcd"); err == nil {
		t.Error("short serial accepted")
	}
}

func TestKeyWrapRoundtrip(t *testing.T) {
	p := newPseudonym(t)
	key := testContentKey(t)
	label := []byte("ctx")
	kw, err := WrapKey(testGroup(), p.enc.Y, key, label)
	if err != nil {
		t.Fatal(err)
	}
	got, err := kw.Unwrap(testGroup(), p.enc.X, label)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, key) {
		t.Error("unwrapped key differs")
	}
}

func TestKeyWrapWrongLabelOrKey(t *testing.T) {
	p, other := newPseudonym(t), newPseudonym(t)
	key := testContentKey(t)
	kw, _ := WrapKey(testGroup(), p.enc.Y, key, []byte("license-A"))
	if _, err := kw.Unwrap(testGroup(), p.enc.X, []byte("license-B")); err == nil {
		t.Error("wrap accepted under wrong label")
	}
	if _, err := kw.Unwrap(testGroup(), other.enc.X, []byte("license-A")); err == nil {
		t.Error("wrap opened with wrong key")
	}
}

func TestPersonalizedVerify(t *testing.T) {
	p := newPseudonym(t)
	l := makePersonalized(t, p, testContentKey(t))
	if err := VerifyPersonalized(testProvider(t).Public(), l); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestPersonalizedMarshalRoundtrip(t *testing.T) {
	p := newPseudonym(t)
	l := makePersonalized(t, p, testContentKey(t))
	data := l.Marshal()
	back, err := UnmarshalPersonalized(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPersonalized(testProvider(t).Public(), back); err != nil {
		t.Fatalf("decoded license does not verify: %v", err)
	}
	if back.Serial != l.Serial || back.ContentID != l.ContentID {
		t.Error("identity fields mismatch")
	}
	if !back.Rights.Equal(l.Rights) {
		t.Error("rights mismatch")
	}
	if !back.IssuedAt.Equal(l.IssuedAt) {
		t.Errorf("IssuedAt %v != %v", back.IssuedAt, l.IssuedAt)
	}
	if !bytes.Equal(back.Marshal(), data) {
		t.Error("re-marshal differs (non-canonical encoding)")
	}
}

func TestPersonalizedTamperDetection(t *testing.T) {
	p := newPseudonym(t)
	l := makePersonalized(t, p, testContentKey(t))
	pub := testProvider(t).Public()

	mutations := map[string]func(*Personalized){
		"serial":    func(m *Personalized) { m.Serial[0] ^= 1 },
		"content":   func(m *Personalized) { m.ContentID = "song-2" },
		"rights":    func(m *Personalized) { m.Rights = rel.MustParse("grant play;") },
		"holder":    func(m *Personalized) { m.HolderSign[5] ^= 1 },
		"enc key":   func(m *Personalized) { m.HolderEnc[5] ^= 1 },
		"key wrap":  func(m *Personalized) { m.KeyWrap.SealedKey[0] ^= 1 },
		"issued at": func(m *Personalized) { m.IssuedAt = m.IssuedAt.Add(time.Hour) },
		"signature": func(m *Personalized) { m.ProviderSig[0] ^= 1 },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			m, err := UnmarshalPersonalized(l.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			mutate(m)
			if err := VerifyPersonalized(pub, m); err == nil {
				t.Errorf("tampered %s accepted", name)
			}
		})
	}
}

func TestPersonalizedValidate(t *testing.T) {
	p := newPseudonym(t)
	good := makePersonalized(t, p, testContentKey(t))
	cases := map[string]func(*Personalized){
		"zero serial":    func(m *Personalized) { m.Serial = Serial{} },
		"empty content":  func(m *Personalized) { m.ContentID = "" },
		"no holder sign": func(m *Personalized) { m.HolderSign = nil },
		"no holder enc":  func(m *Personalized) { m.HolderEnc = nil },
		"nil rights":     func(m *Personalized) { m.Rights = nil },
		"no kem":         func(m *Personalized) { m.KeyWrap.KEM = nil },
		"no sealed key":  func(m *Personalized) { m.KeyWrap.SealedKey = nil },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			m, _ := UnmarshalPersonalized(good.Marshal())
			mutate(m)
			if err := m.Validate(); err == nil {
				t.Errorf("invalid license (%s) passed Validate", name)
			}
		})
	}
}

func TestUnmarshalPersonalizedRejectsGarbage(t *testing.T) {
	p := newPseudonym(t)
	l := makePersonalized(t, p, testContentKey(t))
	data := l.Marshal()
	if _, err := UnmarshalPersonalized(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := UnmarshalPersonalized(data[:10]); err == nil {
		t.Error("truncation accepted")
	}
	if _, err := UnmarshalPersonalized(append(data, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	wrongKind := append([]byte(nil), data...)
	wrongKind[1] = kindAnonymous
	if _, err := UnmarshalPersonalized(wrongKind); err == nil {
		t.Error("wrong kind accepted")
	}
	wrongVer := append([]byte(nil), data...)
	wrongVer[0] = 9
	if _, err := UnmarshalPersonalized(wrongVer); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestDenomDistinct(t *testing.T) {
	r1 := rel.MustParse("grant play;")
	r2 := rel.MustParse("grant play count 5;")
	if Denom("a", r1) == Denom("b", r1) {
		t.Error("different content, same denom")
	}
	if Denom("a", r1) == Denom("a", r2) {
		t.Error("different rights, same denom")
	}
	if Denom("a", r1) != Denom("a", rel.MustParse("grant play;")) {
		t.Error("equal inputs, different denom")
	}
}

func TestAnonymousBlindIssueAndVerify(t *testing.T) {
	prov := testProvider(t)
	serial, _ := NewSerial()
	denom := Denom("song-1", testRights)

	// User blinds the signing bytes; provider signs blind; user unblinds.
	msg := AnonymousSigningBytes(serial, denom)
	blinded, st, err := rsablind.Blind(prov.Public(), msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blindSig, err := prov.SignBlinded(blinded)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := rsablind.Unblind(prov.Public(), st, blindSig)
	if err != nil {
		t.Fatal(err)
	}
	a := &Anonymous{Serial: serial, Denom: denom, Sig: sig}
	if err := VerifyAnonymous(prov.Public(), a); err != nil {
		t.Fatalf("verify: %v", err)
	}

	back, err := UnmarshalAnonymous(a.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAnonymous(prov.Public(), back); err != nil {
		t.Errorf("decoded anonymous license invalid: %v", err)
	}
}

func TestAnonymousTamperDetection(t *testing.T) {
	prov := testProvider(t)
	serial, _ := NewSerial()
	denom := Denom("song-1", testRights)
	sig, _ := prov.Sign(AnonymousSigningBytes(serial, denom))
	a := &Anonymous{Serial: serial, Denom: denom, Sig: sig}

	bad := *a
	bad.Serial[0] ^= 1
	if err := VerifyAnonymous(prov.Public(), &bad); err == nil {
		t.Error("mutated serial accepted")
	}
	bad2 := *a
	bad2.Denom[0] ^= 1
	if err := VerifyAnonymous(prov.Public(), &bad2); err == nil {
		t.Error("mutated denomination accepted: license upgraded itself")
	}
	if err := VerifyAnonymous(prov.Public(), nil); err == nil {
		t.Error("nil accepted")
	}
	var zero Anonymous
	zero.Sig = sig
	if err := VerifyAnonymous(prov.Public(), &zero); err == nil {
		t.Error("zero serial accepted")
	}
}

// Property: marshal/unmarshal is the identity on randomly-built
// personalized licenses (codec never silently alters a license).
func TestQuickPersonalizedCodec(t *testing.T) {
	p := newPseudonym(t)
	prov := testProvider(t)
	cfg := &quick.Config{MaxCount: 15, Rand: mrand.New(mrand.NewSource(16))}
	f := func(contentName string, playCount uint16, hours uint16) bool {
		if contentName == "" {
			contentName = "x"
		}
		serial, err := NewSerial()
		if err != nil {
			return false
		}
		rights := &rel.Rights{
			Grants:   map[rel.Action]rel.Grant{rel.ActPlay: {Action: rel.ActPlay, Count: int64(playCount%500) + 1}},
			NotAfter: time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(hours) * time.Hour),
		}
		key := make([]byte, 32)
		rand.Read(key)
		kw, err := WrapKey(testGroup(), p.enc.Y, key, WrapLabelPersonalized(serial, ContentID(contentName)))
		if err != nil {
			return false
		}
		l := &Personalized{
			Serial:     serial,
			ContentID:  ContentID(contentName),
			HolderSign: testGroup().EncodeElement(p.sign.Y),
			HolderEnc:  testGroup().EncodeElement(p.enc.Y),
			Rights:     rights,
			KeyWrap:    kw,
			IssuedAt:   time.Date(2004, 3, 4, 5, 6, 7, 0, time.UTC),
		}
		if err := Sign(prov, l); err != nil {
			return false
		}
		back, err := UnmarshalPersonalized(l.Marshal())
		if err != nil {
			return false
		}
		return bytes.Equal(back.Marshal(), l.Marshal()) &&
			VerifyPersonalized(prov.Public(), back) == nil
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: anonymous license codec identity.
func TestQuickAnonymousCodec(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: mrand.New(mrand.NewSource(17))}
	f := func(serial [32]byte, denom [32]byte, sig []byte) bool {
		a := &Anonymous{Serial: Serial(serial), Denom: DenominationID(denom), Sig: sig}
		back, err := UnmarshalAnonymous(a.Marshal())
		if err != nil {
			return false
		}
		return back.Serial == a.Serial && back.Denom == a.Denom && bytes.Equal(back.Sig, a.Sig)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
