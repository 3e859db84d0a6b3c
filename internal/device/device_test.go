package device

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"strings"
	"sync"
	"testing"
	"time"

	"p2drm/internal/cryptox/envelope"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
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

// fixture bundles a device, card, license and encrypted content.
type fixture struct {
	dev     *Device
	card    *smartcard.Card
	ps      *smartcard.Pseudonym // the card's pseudonym 0, lic's holder
	key     []byte               // the content key lic wraps
	lic     *license.Personalized
	content []byte
	enc     []byte
	revList *revocation.List
}

var fixedNow = time.Date(2004, 8, 1, 10, 0, 0, 0, time.UTC)

func newFixture(t *testing.T, rightsSrc string) *fixture {
	t.Helper()
	g := schnorr.Group768()
	p := testProv(t)

	card, err := smartcard.NewRandom(g)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := card.Pseudonym(0)
	if err != nil {
		t.Fatal(err)
	}

	st, _ := kvstore.Open("")
	dev, err := New(Config{
		ID: "dev-1", Class: "audio", Region: "EU",
		Group: g, ProviderPub: p.Public(), State: st,
		Clock: func() time.Time { return fixedNow },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Content + key.
	contentKey, err := envelope.NewContentKey()
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("PCM audio frames ... " + strings.Repeat("la", 500))
	var encBuf bytes.Buffer
	if err := envelope.EncryptStream(&encBuf, bytes.NewReader(content), contentKey, int64(len(content)), 1024); err != nil {
		t.Fatal(err)
	}

	serial, _ := license.NewSerial()
	lic := issueLicense(t, ps, contentKey, serial, rel.MustParse(rightsSrc))

	// Empty revocation list → signed filter.
	rst, _ := kvstore.Open("")
	rl, err := revocation.Open(rst, 100)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := rl.ExportFilter(p, fixedNow.Add(-time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.InstallRevocationFilter(sf); err != nil {
		t.Fatal(err)
	}

	return &fixture{dev: dev, card: card, ps: ps, key: contentKey, lic: lic, content: content, enc: encBuf.Bytes(), revList: rl}
}

// issueLicense signs a license for song-1 under serial, wrapping key to
// the pseudonym ps.
func issueLicense(t *testing.T, ps *smartcard.Pseudonym, key []byte, serial license.Serial, rights *rel.Rights) *license.Personalized {
	t.Helper()
	g := schnorr.Group768()
	kw, err := license.WrapKey(g, ps.EncY(), key, license.WrapLabelPersonalized(serial, "song-1"))
	if err != nil {
		t.Fatal(err)
	}
	lic := &license.Personalized{
		Serial:     serial,
		ContentID:  "song-1",
		HolderSign: ps.SignPublic(g),
		HolderEnc:  ps.EncPublic(g),
		Rights:     rights,
		KeyWrap:    kw,
		IssuedAt:   fixedNow.Add(-time.Hour),
	}
	if err := license.Sign(testProv(t), lic); err != nil {
		t.Fatal(err)
	}
	return lic
}

func (f *fixture) play(t *testing.T) error {
	t.Helper()
	var out bytes.Buffer
	err := f.dev.Play(f.card, 0, f.lic, bytes.NewReader(f.enc), &out)
	if err == nil && !bytes.Equal(out.Bytes(), f.content) {
		t.Fatal("decrypted content differs from original")
	}
	return err
}

func TestPlayHappyPath(t *testing.T) {
	f := newFixture(t, "grant play count 3;")
	if err := f.play(t); err != nil {
		t.Fatalf("play: %v", err)
	}
	used, err := f.dev.UsedCount(f.lic.Serial, rel.ActPlay)
	if err != nil || used != 1 {
		t.Errorf("used = %d, %v", used, err)
	}
}

// The device has one verification for a license signed alone and one out
// of a batch call: fold the path, check the root signature. A license
// re-signed under a root it shares with fourteen others plays; the same
// license with its path bent, or with the signature of the root it was
// under before, does not — and its counters are its own, not the root's.
func TestPlayLicenseUnderASharedRoot(t *testing.T) {
	f := newFixture(t, "grant play count 2;")
	loneSig := f.lic.ProviderSig
	set := []*license.Personalized{f.lic}
	for i := 1; i < 15; i++ { // 15 leaves: promoted nodes on the way up
		sibling := *f.lic
		sibling.Serial[0] ^= byte(i)
		set = append(set, &sibling)
	}
	if err := license.Sign(testProv(t), set...); err != nil {
		t.Fatal(err)
	}
	if len(f.lic.Path.Siblings) == 0 {
		t.Fatal("the re-signed license has no path")
	}
	if err := f.play(t); err != nil {
		t.Fatalf("license under a shared root does not play: %v", err)
	}
	if used, err := f.dev.UsedCount(set[1].Serial, rel.ActPlay); err != nil || used != 0 {
		t.Errorf("a play was counted against a sibling under the same root: %d, %v", used, err)
	}

	good := f.lic
	bent := *good
	bent.Path.Rights = append([]bool(nil), good.Path.Rights...)
	bent.Path.Rights[0] = !bent.Path.Rights[0]
	stale := *good
	stale.ProviderSig = loneSig
	for name, l := range map[string]*license.Personalized{"bent path": &bent, "the former root's signature": &stale} {
		f.lic = l
		if err := f.play(t); err == nil || !strings.Contains(err.Error(), "provider signature") {
			t.Errorf("%s: play = %v, want the signature refusal", name, err)
		}
	}
	f.lic = good
	if err := f.play(t); err != nil {
		t.Fatalf("second play: %v", err)
	}
	if err := f.play(t); err == nil {
		t.Error("third play allowed with count 2")
	}
}

func TestPlayCountExhaustion(t *testing.T) {
	f := newFixture(t, "grant play count 2;")
	for i := 0; i < 2; i++ {
		if err := f.play(t); err != nil {
			t.Fatalf("play %d: %v", i, err)
		}
	}
	err := f.play(t)
	if err == nil {
		t.Fatal("third play allowed with count 2")
	}
	if !strings.Contains(err.Error(), "exhausted") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestCountersSurviveRestart(t *testing.T) {
	g := schnorr.Group768()
	dir := t.TempDir()
	st, err := kvstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, "grant play count 2;")
	// Rebuild the device on a durable store.
	dev, err := New(Config{
		ID: "dev-d", Class: "audio", Region: "EU",
		Group: g, ProviderPub: testProv(t).Public(), State: st,
		Clock: func() time.Time { return fixedNow },
	})
	if err != nil {
		t.Fatal(err)
	}
	sf, _ := f.revList.ExportFilter(testProv(t), fixedNow)
	dev.InstallRevocationFilter(sf)

	var out bytes.Buffer
	if err := dev.Play(f.card, 0, f.lic, bytes.NewReader(f.enc), &out); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// "Power-cycle" the device.
	st2, err := kvstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	dev2, _ := New(Config{
		ID: "dev-d", Class: "audio", Region: "EU",
		Group: g, ProviderPub: testProv(t).Public(), State: st2,
		Clock: func() time.Time { return fixedNow },
	})
	dev2.InstallRevocationFilter(sf)
	out.Reset()
	if err := dev2.Play(f.card, 0, f.lic, bytes.NewReader(f.enc), &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := dev2.Play(f.card, 0, f.lic, bytes.NewReader(f.enc), &out); err == nil {
		t.Fatal("counter reset across restart: 3 plays on a 2-play license")
	}
}

func TestFailClosedWithoutFilter(t *testing.T) {
	f := newFixture(t, "grant play;")
	g := schnorr.Group768()
	st, _ := kvstore.Open("")
	bare, _ := New(Config{
		ID: "dev-2", Class: "audio", Region: "EU",
		Group: g, ProviderPub: testProv(t).Public(), State: st,
		Clock: func() time.Time { return fixedNow },
	})
	var out bytes.Buffer
	if err := bare.Play(f.card, 0, f.lic, bytes.NewReader(f.enc), &out); err != ErrNoRevocationFilter {
		t.Errorf("err = %v, want ErrNoRevocationFilter", err)
	}
}

func TestRevokedLicenseRefused(t *testing.T) {
	f := newFixture(t, "grant play;")
	if err := f.revList.Add(f.lic.Serial); err != nil {
		t.Fatal(err)
	}
	sf, _ := f.revList.ExportFilter(testProv(t), fixedNow)
	if err := f.dev.InstallRevocationFilter(sf); err != nil {
		t.Fatal(err)
	}
	if err := f.play(t); err != ErrRevoked {
		t.Errorf("err = %v, want ErrRevoked", err)
	}
}

// TestFalsePositiveClearsOnTheNextFilter: a device refuses an honest
// license whose serial is a false positive of the filter it holds, and
// plays it once it installs a later cut, whose fresh salt wrongs other
// serials. A later cut is positive for the serial with probability
// 2⁻¹⁴, independently of the cuts before it, so all falsePositiveCuts of
// them positive — this test failing on correct code — has probability
// 2⁻⁴² ≈ 2·10⁻¹³.
func TestFalsePositiveClearsOnTheNextFilter(t *testing.T) {
	const falsePositiveCuts = 3
	f := newFixture(t, "grant play;")
	revoked := make([]license.Serial, 1000)
	for i := range revoked {
		revoked[i], _ = license.NewSerial()
	}
	if err := f.revList.AddBatch(revoked); err != nil {
		t.Fatal(err)
	}
	first, err := f.revList.ExportFilter(testProv(t), fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	filter, err := revocation.VerifyFilter(testProv(t).Public(), first)
	if err != nil {
		t.Fatal(err)
	}
	// About 1.6·10⁴ tries at the filter's rate of 2⁻¹⁴; 10⁷ without a
	// hit has probability e⁻⁶¹⁰.
	var honest license.Serial
	for i := 0; ; i++ {
		if i == 10_000_000 {
			t.Fatal("no false positive in 10⁷ serials")
		}
		honest, _ = license.NewSerial()
		if filter.Contains(honest[:]) && !f.revList.Contains(honest) {
			break
		}
	}
	f.lic = issueLicense(t, f.ps, f.key, honest, f.lic.Rights)
	if err := f.dev.InstallRevocationFilter(first); err != nil {
		t.Fatal(err)
	}
	if err := f.play(t); err != ErrRevoked {
		t.Fatalf("under the first cut: err = %v, want ErrRevoked", err)
	}

	for cut := 1; ; cut++ {
		if cut > falsePositiveCuts {
			t.Fatalf("%d later cuts all refuse the honest license", falsePositiveCuts)
		}
		// Past the provider's one-minute bound on an artefact's age, an
		// unchanged list is cut again.
		sf, err := f.revList.ExportFilter(testProv(t), fixedNow.Add(time.Duration(cut)*2*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.dev.InstallRevocationFilter(sf); err != nil {
			t.Fatal(err)
		}
		err = f.play(t)
		if err == nil {
			break
		}
		if err != ErrRevoked {
			t.Fatalf("cut %d: play: %v", cut, err)
		}
	}
}

func TestFilterRollbackRejected(t *testing.T) {
	f := newFixture(t, "grant play;")
	old, _ := f.revList.ExportFilter(testProv(t), fixedNow.Add(-time.Hour))
	if err := f.dev.InstallRevocationFilter(old); err == nil {
		t.Error("older filter accepted (rollback)")
	}
}

// Two filters cut inside one clock second, either side of a revocation,
// carry the same signed timestamp: the one with fewer serials must not
// replace the other, whatever sub-second value the offer claims.
func TestFilterSameSecondRollbackRejected(t *testing.T) {
	f := newFixture(t, "grant play;")
	other, _ := license.NewSerial()
	if err := f.revList.Add(other); err != nil {
		t.Fatal(err)
	}
	before, err := f.revList.ExportFilter(testProv(t), fixedNow.Add(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.revList.Add(f.lic.Serial); err != nil {
		t.Fatal(err)
	}
	after, err := f.revList.ExportFilter(testProv(t), fixedNow.Add(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if !before.IssuedAt.Equal(after.IssuedAt) {
		t.Fatalf("fixture: filters not in one second (%s, %s)", before.IssuedAt, after.IssuedAt)
	}
	if err := f.dev.InstallRevocationFilter(before); err != nil {
		t.Fatalf("older filter first: %v", err)
	}
	if err := f.dev.InstallRevocationFilter(after); err != nil {
		t.Fatalf("newer filter of the same second refused: %v", err)
	}
	if err := f.dev.InstallRevocationFilter(after); err != nil {
		t.Fatalf("same filter again refused: %v", err)
	}
	for _, claimed := range []time.Time{before.IssuedAt, before.IssuedAt.Add(900 * time.Millisecond)} {
		offer := *before
		offer.IssuedAt = claimed // the unsigned fraction of a second is the attacker's to set
		if err := f.dev.InstallRevocationFilter(&offer); err == nil {
			t.Errorf("filter cut before the revocation replaced the one cut after it (claimed %s)", claimed)
		}
	}
	if err := f.play(t); err != ErrRevoked {
		t.Errorf("err = %v, want ErrRevoked", err)
	}
}

func TestWrongCardFailsChallenge(t *testing.T) {
	f := newFixture(t, "grant play;")
	thief, _ := smartcard.NewRandom(schnorr.Group768())
	var out bytes.Buffer
	err := f.dev.Play(thief, 0, f.lic, bytes.NewReader(f.enc), &out)
	if err == nil || !strings.Contains(err.Error(), "challenge") {
		t.Errorf("stolen license played: %v", err)
	}
}

func TestForgedLicenseRejected(t *testing.T) {
	f := newFixture(t, "grant play count 1;")
	f.lic.Rights = rel.MustParse("grant play count 999;")
	if err := f.play(t); err == nil {
		t.Error("forged rights accepted")
	}
}

func TestWrongDeviceClassDenied(t *testing.T) {
	f := newFixture(t, `grant play; device class "video";`)
	err := f.play(t)
	if err == nil || !strings.Contains(err.Error(), "device class") {
		t.Errorf("class mismatch played: %v", err)
	}
}

func TestExpiredLicenseDenied(t *testing.T) {
	f := newFixture(t, `grant play; valid until "2004-07-01T00:00:00Z";`)
	err := f.play(t)
	if err == nil || !strings.Contains(err.Error(), "expired") {
		t.Errorf("expired license played: %v", err)
	}
}

func TestDomainRequirement(t *testing.T) {
	f := newFixture(t, "grant play; require domain;")
	if err := f.play(t); err == nil {
		t.Fatal("domain license played outside domain")
	}
}

func TestDoNonContentAction(t *testing.T) {
	f := newFixture(t, "grant play; grant export count 1;")
	if err := f.dev.Do(f.card, 0, f.lic, rel.ActExport); err != nil {
		t.Fatal(err)
	}
	if err := f.dev.Do(f.card, 0, f.lic, rel.ActExport); err == nil {
		t.Error("export count not metered")
	}
	if err := f.dev.Do(f.card, 0, f.lic, rel.ActCopy); err == nil {
		t.Error("ungranted action allowed")
	}
}

func TestCorruptStateFailsClosed(t *testing.T) {
	f := newFixture(t, "grant play count 5;")
	if err := f.play(t); err != nil {
		t.Fatal(err)
	}
	// Owner tampers with the counter.
	key := usedKey(f.lic.Serial.String(), rel.ActPlay)
	f.dev.cfg.State.Put(key, []byte("garbage"))
	if err := f.play(t); err == nil {
		t.Error("corrupt counter state accepted")
	}
}

func TestNewConfigValidation(t *testing.T) {
	g := schnorr.Group768()
	st, _ := kvstore.Open("")
	pub := testProv(t).Public()
	cases := []Config{
		{Class: "a", Group: g, ProviderPub: pub, State: st},
		{ID: "d", Group: g, ProviderPub: pub, State: st},
		{ID: "d", Class: "a", ProviderPub: pub, State: st},
		{ID: "d", Class: "a", Group: g, State: st},
		{ID: "d", Class: "a", Group: g, ProviderPub: pub},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
