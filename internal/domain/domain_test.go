package domain

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"errors"

	"sync"
	"testing"
	"time"

	"p2drm/internal/cryptox/envelope"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/device"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/rel"
	"p2drm/internal/revocation"
	"p2drm/internal/smartcard"
)

var (
	provOnce sync.Once
	prov     *rsablind.Signer
)

func testProv(t *testing.T) *rsablind.Signer {
	t.Helper()
	provOnce.Do(func() {
		key, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
		prov, err = rsablind.NewSigner(key)
		if err != nil {
			panic(err)
		}
	})
	return prov
}

var fixedNow = time.Date(2004, 10, 1, 0, 0, 0, 0, time.UTC)

func newManager(t *testing.T, maxSize int) *Manager {
	t.Helper()
	g := schnorr.Group768()
	card, err := smartcard.NewRandom(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager("home-1", g, testProv(t).Public(), card, 0, maxSize)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// certifiedDevice builds a device with an identity key and a provider
// certificate.
func certifiedDevice(t *testing.T, id string) (*device.Device, *device.Certificate) {
	t.Helper()
	g := schnorr.Group768()
	key, err := schnorr.GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := kvstore.Open("")
	dev, err := device.New(device.Config{
		ID: id, Class: "audio", Region: "EU",
		Group: g, ProviderPub: testProv(t).Public(), State: st,
		Clock:       func() time.Time { return fixedNow },
		IdentityKey: key,
	})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := device.Certify(testProv(t), g, id, "audio", key.Y)
	if err != nil {
		t.Fatal(err)
	}
	return dev, cert
}

func TestJoinLeaveAndCredentials(t *testing.T) {
	m := newManager(t, 3)
	g := schnorr.Group768()
	_, cert := certifiedDevice(t, "tv")

	cred, err := m.Join(cert, fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCredential(g, m.PublicKey(), cred); err != nil {
		t.Fatalf("credential invalid: %v", err)
	}
	if m.Size() != 1 {
		t.Errorf("size = %d", m.Size())
	}
	if _, err := m.Join(cert, fixedNow); !errors.Is(err, ErrAlreadyMember) {
		t.Errorf("duplicate join: %v", err)
	}
	if err := m.Leave("tv"); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 0 {
		t.Errorf("size after leave = %d", m.Size())
	}
	if err := m.Leave("tv"); !errors.Is(err, ErrNotMember) {
		t.Errorf("double leave: %v", err)
	}
}

func TestJoinRejectsBadCertificate(t *testing.T) {
	m := newManager(t, 3)
	_, cert := certifiedDevice(t, "tv")
	forged := *cert
	forged.Class = "video"
	if _, err := m.Join(&forged, fixedNow); !errors.Is(err, ErrBadCertificate) {
		t.Errorf("forged cert joined: %v", err)
	}
}

func TestDomainSizeCap(t *testing.T) {
	m := newManager(t, 2)
	for i, id := range []string{"tv", "radio"} {
		_, cert := certifiedDevice(t, id)
		if _, err := m.Join(cert, fixedNow); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	_, cert := certifiedDevice(t, "car")
	if _, err := m.Join(cert, fixedNow); !errors.Is(err, ErrDomainFull) {
		t.Errorf("over-cap join: %v", err)
	}
}

func TestCredentialTamperRejected(t *testing.T) {
	m := newManager(t, 3)
	g := schnorr.Group768()
	_, cert := certifiedDevice(t, "tv")
	cred, _ := m.Join(cert, fixedNow)

	bad := *cred
	bad.DeviceID = "intruder"
	if err := VerifyCredential(g, m.PublicKey(), &bad); err == nil {
		t.Error("device-swapped credential accepted")
	}
	bad2 := *cred
	bad2.DomainID = "other-home"
	if err := VerifyCredential(g, m.PublicKey(), &bad2); err == nil {
		t.Error("domain-swapped credential accepted")
	}
	if err := VerifyCredential(g, m.PublicKey(), nil); err == nil {
		t.Error("nil credential accepted")
	}
}

func TestSizeAuditProtocol(t *testing.T) {
	m := newManager(t, 5)
	g := schnorr.Group768()
	for _, id := range []string{"a", "b", "c"} {
		_, cert := certifiedDevice(t, id)
		if _, err := m.Join(cert, fixedNow); err != nil {
			t.Fatal(err)
		}
	}
	m.Leave("b")

	commitment := m.SizeCommitment()
	audit := m.Audit()
	if audit.Count != 2 {
		t.Fatalf("audit count = %d", audit.Count)
	}
	if err := VerifyAudit(g, commitment, audit, 5); err != nil {
		t.Fatalf("honest audit rejected: %v", err)
	}
	// Lying about the count fails.
	lying := &SizeAudit{Count: 1, Opening: audit.Opening}
	if err := VerifyAudit(g, commitment, lying, 5); err == nil {
		t.Error("understated count accepted")
	}
	// Over-cap detection.
	if err := VerifyAudit(g, commitment, audit, 1); err == nil {
		t.Error("over-cap audit accepted")
	}
	if err := VerifyAudit(g, commitment, nil, 5); err == nil {
		t.Error("nil audit accepted")
	}
}

func TestCommitmentHidesMembershipChanges(t *testing.T) {
	// Two domains with the same size must have different commitments
	// (hiding), and the provider cannot distinguish join+leave from
	// nothing by count alone.
	m1 := newManager(t, 5)
	m2 := newManager(t, 5)
	_, cert := certifiedDevice(t, "x")
	m1.Join(cert, fixedNow)
	m1.Leave("x")
	c1 := m1.SizeCommitment()
	c2 := m2.SizeCommitment()
	if c1.C.Cmp(c2.C) == 0 {
		t.Error("commitments equal across domains: not hiding")
	}
	// Both open to zero.
	g := schnorr.Group768()
	if err := VerifyAudit(g, c1, m1.Audit(), 5); err != nil {
		t.Errorf("m1 audit: %v", err)
	}
	if err := VerifyAudit(g, c2, m2.Audit(), 5); err != nil {
		t.Errorf("m2 audit: %v", err)
	}
}

// TestDomainPlaybackEndToEnd: DM buys (holds) a domain license; member
// device plays it through a member wrap; non-members cannot.
func TestDomainPlaybackEndToEnd(t *testing.T) {
	g := schnorr.Group768()
	p := testProv(t)
	m := newManager(t, 3)
	dmCard, dmIndex := m.Card()
	dmPs, err := dmCard.Pseudonym(dmIndex)
	if err != nil {
		t.Fatal(err)
	}

	// Build the domain license bound to the DM pseudonym.
	contentKey, _ := envelope.NewContentKey()
	content := []byte("family movie night bytes")
	var enc bytes.Buffer
	if err := envelope.EncryptStream(&enc, bytes.NewReader(content), contentKey, int64(len(content)), 0); err != nil {
		t.Fatal(err)
	}
	serial, _ := license.NewSerial()
	kw, err := license.WrapKey(g, dmPs.EncY(), contentKey, license.WrapLabelPersonalized(serial, "movie-7"))
	if err != nil {
		t.Fatal(err)
	}
	lic := &license.Personalized{
		Serial:     serial,
		ContentID:  "movie-7",
		HolderSign: dmPs.SignPublic(g),
		HolderEnc:  dmPs.EncPublic(g),
		Rights:     rel.MustParse("grant play count 10; require domain;"),
		KeyWrap:    kw,
		IssuedAt:   fixedNow,
	}
	if err := license.Sign(p, lic); err != nil {
		t.Fatal(err)
	}

	// Member joins and gets a wrap.
	dev, cert := certifiedDevice(t, "tv")
	if _, err := m.Join(cert, fixedNow); err != nil {
		t.Fatal(err)
	}
	dev.JoinedDomain(m.ID())
	memberWrap, err := m.MemberWrap(lic, "tv")
	if err != nil {
		t.Fatal(err)
	}

	// Device needs a revocation filter (fail closed).
	rst, _ := kvstore.Open("")
	rl, _ := revocation.Open(rst, 10)
	sf, _ := rl.ExportFilter(p, fixedNow)
	dev.InstallRevocationFilter(sf)

	var out bytes.Buffer
	label := WrapLabel(lic.Serial, lic.ContentID, m.ID())
	if err := dev.PlayDomain(lic, memberWrap, m.ID(), label, bytes.NewReader(enc.Bytes()), &out); err != nil {
		t.Fatalf("domain playback: %v", err)
	}
	if !bytes.Equal(out.Bytes(), content) {
		t.Error("playback content mismatch")
	}

	// Non-member device cannot get a wrap.
	if _, err := m.MemberWrap(lic, "stranger"); !errors.Is(err, ErrNotMember) {
		t.Errorf("non-member wrap: %v", err)
	}
	// A member that left cannot play new wraps.
	m.Leave("tv")
	if _, err := m.MemberWrap(lic, "tv"); !errors.Is(err, ErrNotMember) {
		t.Errorf("departed member wrap: %v", err)
	}
	// Device outside the domain refuses even with a wrap in hand.
	dev.JoinedDomain("")
	out.Reset()
	if err := dev.PlayDomain(lic, memberWrap, m.ID(), label, bytes.NewReader(enc.Bytes()), &out); err == nil {
		t.Error("playback allowed outside domain")
	}
}

func TestManagerValidation(t *testing.T) {
	g := schnorr.Group768()
	card, _ := smartcard.NewRandom(g)
	if _, err := NewManager("", g, testProv(t).Public(), card, 0, 3); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := NewManager("d", nil, testProv(t).Public(), card, 0, 3); err == nil {
		t.Error("nil group accepted")
	}
	if _, err := NewManager("d", g, testProv(t).Public(), card, 0, 0); err == nil {
		t.Error("zero cap accepted")
	}
	if _, err := NewManager("d", g, testProv(t).Public(), nil, 0, 3); err == nil {
		t.Error("nil card accepted")
	}
}

func TestCredentialFor(t *testing.T) {
	m := newManager(t, 3)
	_, cert := certifiedDevice(t, "tv")
	cred, _ := m.Join(cert, fixedNow)
	got, err := m.CredentialFor("tv")
	if err != nil || got.DeviceID != cred.DeviceID {
		t.Errorf("CredentialFor: %v", err)
	}
	if _, err := m.CredentialFor("ghost"); !errors.Is(err, ErrNotMember) {
		t.Errorf("ghost credential: %v", err)
	}
}
