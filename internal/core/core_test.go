package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/license"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
)

var fixedNow = time.Date(2004, 9, 1, 12, 0, 0, 0, time.UTC)

var testTemplate = rel.MustParse(`
grant play count 10;
grant transfer;
delegate allow;
`)

// newTestSystem builds a small-parameter system with one content item.
func newTestSystem(t *testing.T, opts Options) *System {
	t.Helper()
	opts.Group = schnorr.Group768()
	opts.RSABits = 1024
	opts.DenomKeyBits = 1024
	if opts.Clock == nil {
		opts.Clock = func() time.Time { return fixedNow }
	}
	s, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Provider.AddContent("song-1", "Song One", 3, testTemplate,
		[]byte("some protected audio content")); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPurchaseAndPlay(t *testing.T) {
	s := newTestSystem(t, Options{})
	alice, err := s.NewUser("alice", 10)
	if err != nil {
		t.Fatal(err)
	}
	lic, err := s.Purchase(alice, "song-1")
	if err != nil {
		t.Fatal(err)
	}
	if bal, _ := s.Bank.Balance("alice"); bal != 7 {
		t.Errorf("alice balance = %d, want 7", bal)
	}
	dev, _, err := s.NewDevice("living-room", "audio", "EU")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := s.Play(alice, dev, lic, &out); err != nil {
		t.Fatalf("play: %v", err)
	}
	if out.String() != "some protected audio content" {
		t.Error("played content mismatch")
	}
}

func TestPurchaseInsufficientFunds(t *testing.T) {
	s := newTestSystem(t, Options{})
	poor, _ := s.NewUser("poor", 1)
	if _, err := s.Purchase(poor, "song-1"); err == nil {
		t.Error("purchase with insufficient funds succeeded")
	}
}

func TestTransferEndToEnd(t *testing.T) {
	s := newTestSystem(t, Options{})
	alice, _ := s.NewUser("alice", 10)
	bob, _ := s.NewUser("bob", 10)

	lic, err := s.Purchase(alice, "song-1")
	if err != nil {
		t.Fatal(err)
	}
	newLic, err := s.Transfer(alice, lic, bob)
	if err != nil {
		t.Fatalf("transfer: %v", err)
	}
	// Old license dead, new license plays.
	if !s.Provider.Revoked(lic.Serial) {
		t.Error("old serial not revoked")
	}
	dev, _, _ := s.NewDevice("bob-player", "audio", "EU")
	var out bytes.Buffer
	if err := s.Play(bob, dev, newLic, &out); err != nil {
		t.Fatalf("bob plays: %v", err)
	}
	// Alice's stale copy refuses on a refreshed device.
	aliceDev, _, _ := s.NewDevice("alice-player", "audio", "EU")
	out.Reset()
	if err := s.Play(alice, aliceDev, lic, &out); err == nil {
		t.Error("alice played a transferred (revoked) license")
	}
}

func TestTransferUnlinkableInJournal(t *testing.T) {
	// The provider journal must not allow linking exchange to redeem:
	// no common serials, pseudonyms, or blobs between the two events.
	s := newTestSystem(t, Options{})
	alice, _ := s.NewUser("alice", 10)
	bob, _ := s.NewUser("bob", 10)
	lic, _ := s.Purchase(alice, "song-1")
	if _, err := s.Transfer(alice, lic, bob); err != nil {
		t.Fatal(err)
	}
	var ex, rd *provider.Event
	events := s.Provider.Events()
	for i := range events {
		switch events[i].Type {
		case provider.EvExchange:
			ex = &events[i]
		case provider.EvRedeem:
			rd = &events[i]
		}
	}
	if ex == nil || rd == nil {
		t.Fatal("missing journal events")
	}
	if ex.Serial == rd.Serial {
		t.Error("exchange and redeem share a personalized serial")
	}
	if rd.AnonSerial == "" {
		t.Error("redeem did not record the anonymous serial (test invalid)")
	}
	if ex.BlindedHash == "" {
		t.Error("exchange did not record the blinded hash (test invalid)")
	}
	// The blinded hash the provider saw must NOT equal a hash of the
	// anonymous signing bytes — that is exactly what blinding prevents.
	anonSerial, err := license.ParseSerial(rd.AnonSerial)
	if err != nil {
		t.Fatal(err)
	}
	denomPub, denomID, _ := s.Provider.DenomPublic("song-1")
	msg := license.AnonymousSigningBytes(anonSerial, denomID)
	if ex.BlindedHash == hashPrefix(rsablind.Prehash(denomPub, msg)) {
		t.Error("provider could link exchange to redeem by hashing")
	}
}

func TestAblationNoBlindingIsLinkable(t *testing.T) {
	// With blinding disabled (A1), the provider CAN link: the blinded
	// blob it signed IS the anonymous signing bytes.
	s := newTestSystem(t, Options{DisableBlinding: true})
	alice, _ := s.NewUser("alice", 10)
	bob, _ := s.NewUser("bob", 10)
	lic, _ := s.Purchase(alice, "song-1")
	if _, err := s.Transfer(alice, lic, bob); err != nil {
		t.Fatal(err)
	}
	var ex, rd *provider.Event
	events := s.Provider.Events()
	for i := range events {
		switch events[i].Type {
		case provider.EvExchange:
			ex = &events[i]
		case provider.EvRedeem:
			rd = &events[i]
		}
	}
	anonSerial, _ := license.ParseSerial(rd.AnonSerial)
	denomPub, denomID, _ := s.Provider.DenomPublic("song-1")
	msg := license.AnonymousSigningBytes(anonSerial, denomID)
	if ex.BlindedHash != hashPrefix(rsablind.Prehash(denomPub, msg)) {
		t.Error("expected linkability without blinding; ablation broken")
	}
}

func TestTransferredLicenseCannotBeDoubleRedeemed(t *testing.T) {
	s := newTestSystem(t, Options{})
	alice, _ := s.NewUser("alice", 10)
	bob, _ := s.NewUser("bob", 10)
	carol, _ := s.NewUser("carol", 10)
	lic, _ := s.Purchase(alice, "song-1")
	anon, err := s.Exchange(alice, lic)
	if err != nil {
		t.Fatal(err)
	}
	// Alice copies the bearer token and gives it to both Bob and Carol.
	if _, err := s.Redeem(bob, anon); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Redeem(carol, anon); !errors.Is(err, provider.ErrAlreadyRedeemed) {
		t.Errorf("second redemption: %v", err)
	}
}

func TestDelegateAndPlayStar(t *testing.T) {
	s := newTestSystem(t, Options{})
	alice, _ := s.NewUser("alice", 10)
	kid, _ := s.NewUser("kid", 0)
	lic, _ := s.Purchase(alice, "song-1")

	star, dIdx, err := s.Delegate(alice, lic, kid, rel.MustParse("grant play count 2;"))
	if err != nil {
		t.Fatal(err)
	}
	dev, _, _ := s.NewDevice("kid-player", "audio", "EU")
	var out bytes.Buffer
	for i := 0; i < 2; i++ {
		out.Reset()
		if err := s.PlayStar(kid, dIdx, dev, lic, star, &out); err != nil {
			t.Fatalf("star play %d: %v", i, err)
		}
	}
	if err := s.PlayStar(kid, dIdx, dev, lic, star, &out); err == nil {
		t.Error("kid exceeded delegated budget")
	}
}

func TestPlayMetersAcrossDevices(t *testing.T) {
	// Counters are per-device secure state: the paper's model (each
	// compliant device enforces its own counters). 10 plays on one
	// device exhaust that device only.
	s := newTestSystem(t, Options{})
	alice, _ := s.NewUser("alice", 20)
	lic, _ := s.Purchase(alice, "song-1")
	dev1, _, _ := s.NewDevice("d1", "audio", "EU")
	var out bytes.Buffer
	for i := 0; i < 10; i++ {
		out.Reset()
		if err := s.Play(alice, dev1, lic, &out); err != nil {
			t.Fatalf("play %d: %v", i, err)
		}
	}
	if err := s.Play(alice, dev1, lic, &out); err == nil {
		t.Error("11th play on dev1 allowed")
	}
}

func TestPseudonymFreshnessAcrossPurchases(t *testing.T) {
	// Default Purchase uses a fresh pseudonym per transaction: the
	// journal must show distinct fingerprints.
	s := newTestSystem(t, Options{})
	alice, _ := s.NewUser("alice", 20)
	s.Purchase(alice, "song-1")
	s.Purchase(alice, "song-1")
	fps := map[string]bool{}
	for _, e := range s.Provider.Events() {
		if e.Type == provider.EvPurchase {
			fps[e.PseudonymFP] = true
		}
	}
	if len(fps) != 2 {
		t.Errorf("distinct purchase pseudonyms = %d, want 2", len(fps))
	}
}

func TestPseudonymReuseIsVisible(t *testing.T) {
	s := newTestSystem(t, Options{})
	alice, _ := s.NewUser("alice", 20)
	idx, err := alice.FreshPseudonym()
	if err != nil {
		t.Fatal(err)
	}
	s.PurchaseWithPseudonym(alice, "song-1", idx)
	s.PurchaseWithPseudonym(alice, "song-1", idx)
	fps := map[string]bool{}
	for _, e := range s.Provider.Events() {
		if e.Type == provider.EvPurchase {
			fps[e.PseudonymFP] = true
		}
	}
	if len(fps) != 1 {
		t.Errorf("reused pseudonym produced %d fingerprints", len(fps))
	}
}

// hashPrefix mirrors the provider's journal encoding of blinded blobs.
func hashPrefix(b []byte) string {
	return provider.BlindedHashForTest(b)
}
