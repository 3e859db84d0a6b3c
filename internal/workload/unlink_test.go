package workload

// The paper's core privacy claim, scored end to end over HTTP: a
// license purchased at the provider and played back via a third party
// must be uncorrelatable in the provider's own trace. The executor
// keeps per-pair ground truth (which blinded blob and which anonymous
// serial belong together), runs K pairs interleaved, and the test
// hands the provider's journal to linkage.Attack — the strongest
// provider-side adversary the repo models. With blinding on, the
// attack must stay at (here: below) the 1/K random-guess baseline;
// the deliberately-linkable control run (blinding disabled, exactly
// core.Options.DisableBlinding's ablation) must link every single
// pair, proving the test can detect linkage when it exists.

import (
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"p2drm/internal/cryptox/dlkem"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/license"
	"p2drm/internal/linkage"
	"p2drm/internal/provider"
)

// runPlaybackPairs executes K interleaved playback pairs and returns
// the correlation count — how many pairs the provider-side attack
// managed to connect from its own journal — plus the executor, the
// topology and the provider (whose journal that is) so follow-on
// assertions can inspect the run's ground truth and what the live server
// retained of it. The whole
// run goes through one shared httpapi.Client per role, so its coin-key,
// denomination and beacon caches are in play throughout.
func runPlaybackPairs(t *testing.T, k int, linkable bool) (correlated int, pairs []PlaybackPair, ex *Executor, topo Topology, prov *provider.Provider) {
	t.Helper()
	topo, prov = newLoadHarness(t, 1)
	cfg := ScenarioConfig{
		Seed: 42, Users: k, Contents: 1, Ops: k,
		// High RPS + wide in-flight window: all K pairs run
		// concurrently, so exchanges and redeems interleave in the
		// journal instead of arriving as tidy sequential blocks.
		RPS: 500, Duration: 2 * time.Second, MaxInFlight: k,
	}
	ex, err := NewExecutor(context.Background(), topo, cfg.Users, cfg.Seed, ExecOptions{Linkable: linkable})
	if err != nil {
		t.Fatal(err)
	}
	s, err := FindScenario("playback")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.RunScenario(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("playback run errored: %+v", res.Ops)
	}
	pairs = ex.Pairs()
	if len(pairs) != k {
		t.Fatalf("completed %d pairs, want %d", len(pairs), k)
	}

	events := prov.Events()
	clustering := linkage.Attack(events, topo.Primary.Denomination)

	// Locate each pair's two journal faces by the executor's ground
	// truth: the exchange event carrying the blob we sent, and the
	// redeem event carrying the serial the peer revealed.
	exchangeSeq := make(map[string]int)
	redeemSeq := make(map[string]int)
	for _, e := range events {
		switch e.Type {
		case provider.EvExchange:
			exchangeSeq[e.BlindedHash] = e.Seq
		case provider.EvRedeem:
			redeemSeq[e.AnonSerial] = e.Seq
		}
	}
	for _, p := range pairs {
		ex, ok := exchangeSeq[p.BlindedHash]
		if !ok {
			t.Fatalf("pair %+v: blinded hash missing from journal", p)
		}
		rd, ok := redeemSeq[p.AnonSerial]
		if !ok {
			t.Fatalf("pair %+v: anonymous serial missing from journal", p)
		}
		if clustering.SameCluster(ex, rd) {
			correlated++
		}
	}
	return correlated, pairs, ex, topo, prov
}

// TestPlaybackUnlinkability: with blinding, the provider cannot
// correlate any purchase to its playback — 0 of K, at/below the 1/K
// random-guess baseline.
func TestPlaybackUnlinkability(t *testing.T) {
	const k = 8
	correlated, pairs, _, _, _ := runPlaybackPairs(t, k, false)
	// Random guessing links 1/K of pairs in expectation; the attack's
	// rules (pseudonym reuse, blinded-hash matching) find nothing at
	// all against fresh pseudonyms and properly blinded blobs.
	if baseline := len(pairs) / k; correlated > baseline {
		t.Errorf("attack correlated %d/%d pairs, above the random baseline %d",
			correlated, len(pairs), baseline)
	}
}

// TestObservabilityCarriesNoIdentifiers extends the unlinkability
// property to the telemetry plane: after a full playback run, the
// Prometheus scrape and the retained request traces — the two artifacts
// an operator (or anyone who compromises the monitoring pipeline) can
// read — must contain none of the run's linkable identifiers: anonymous
// license serials, blinded-blob encodings, bank account IDs, or the
// smartcards' pseudonym public keys. The harness retains EVERY trace
// (threshold 0), so this holds even under the least favourable
// retention setting. The values the SDK remembers between requests — the
// key ids it names and the challenge beacon its nonces start with — are
// public and the same for every client, but a surface that recorded one
// next to a pseudonym would still be recording which request a client
// made when: they must appear on no surface at all, the provider's own
// journal included. The same goes for what the provider's KEM sender
// remembers between requests — a map from pseudonym enc key to the KEK
// its licenses are sealed under: neither half may reach a scrape, a
// trace, a health body or the journal, in any encoding in use here.
func TestObservabilityCarriesNoIdentifiers(t *testing.T) {
	const k = 8
	_, pairs, ex, topo, prov := runPlaybackPairs(t, k, false)
	probeEnc, probeKEK := cachedKEKProbe(t, topo)

	rawMetrics, err := topo.Primary.MetricsV2()
	if err != nil {
		t.Fatal(err)
	}
	traces, err := topo.Primary.TracesV2()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) == 0 {
		t.Fatal("trace ring empty — retention misconfigured, assertions would be vacuous")
	}
	rawTraces, err := json.Marshal(traces)
	if err != nil {
		t.Fatal(err)
	}
	health, _, err := topo.Primary.HealthV2()
	if err != nil {
		t.Fatal(err)
	}
	rawHealth, err := json.Marshal(health)
	if err != nil {
		t.Fatal(err)
	}
	rawJournal, err := json.Marshal(prov.Events())
	if err != nil {
		t.Fatal(err)
	}

	// The run's ground-truth identifiers, in the encodings a leak would
	// most plausibly use.
	type secret struct{ kind, value string }
	encodings := func(kind string, b []byte) []secret {
		return []secret{
			{kind + " (hex)", hex.EncodeToString(b)},
			{kind + " (base64)", base64.StdEncoding.EncodeToString(b)},
		}
	}
	// secrets must stay off the telemetry surfaces; sender — the two halves
	// of the KEM sender's cache entries — off the journal as well.
	var secrets, sender []secret
	for _, p := range pairs {
		secrets = append(secrets,
			secret{"anonymous serial", p.AnonSerial},
			secret{"blinded blob", p.BlindedHash})
	}
	g := topo.Primary.Group
	for _, u := range ex.users {
		secrets = append(secrets, secret{"bank account", u.Account()})
		// Pseudonym public keys ARE the smartcard's identity as the
		// provider sees it; check the first few indices the run used.
		for idx := uint32(0); idx < 4; idx++ {
			ps, err := u.Card().Pseudonym(idx)
			if err != nil {
				t.Fatal(err)
			}
			secrets = append(secrets, secret{"pseudonym sign key", hex.EncodeToString(ps.SignPublic(g))})
			sender = append(sender, encodings("pseudonym enc key", ps.EncPublic(g))...)
		}
	}
	sender = append(sender, encodings("pseudonym enc key", probeEnc)...)
	sender = append(sender, encodings("cached KEK", probeKEK)...)
	secrets = append(secrets, sender...)

	// What the SDK caches carried on the wire during the run.
	coinPub, err := topo.Primary.CoinKey()
	if err != nil {
		t.Fatal(err)
	}
	denomPub, _, err := topo.Primary.Denomination(pairs[0].ContentID)
	if err != nil {
		t.Fatal(err)
	}
	nonce, err := topo.Primary.Challenge()
	if err != nil {
		t.Fatal(err)
	}
	cached := []secret{
		{"coin key id", rsablind.KeyID(coinPub)},
		{"denomination key id", rsablind.KeyID(denomPub)},
		{"challenge beacon", nonce[:len(nonce)-32]},
	}
	secrets = append(secrets, cached...)
	for _, s := range append(cached, sender...) {
		if s.value == "" || strings.Contains(string(rawJournal), s.value) {
			t.Errorf("provider journal pairs its events with a %s: %q", s.kind, s.value)
		}
	}

	for _, surface := range []struct {
		name string
		body string
	}{
		{"/v2/metrics", string(rawMetrics)},
		{"/v2/debug/traces", string(rawTraces)},
		{"/v2/health", string(rawHealth)},
	} {
		for _, s := range secrets {
			if s.value == "" {
				t.Fatalf("empty %s secret — harness ground truth broken", s.kind)
			}
			if strings.Contains(surface.body, s.value) {
				t.Errorf("%s leaks a %s: %q", surface.name, s.kind, s.value)
			}
		}
	}
}

// cachedKEKProbe buys one license under a pseudonym whose enc private key
// the test holds — the executor's cards keep theirs — and returns that
// enc key and the KEK the license's wrap was sealed under: exactly one
// entry of the provider's KEM sender cache, both halves.
func cachedKEKProbe(t *testing.T, topo Topology) (encPub, kek []byte) {
	t.Helper()
	c := topo.Primary
	g := c.Group
	sign, err := schnorr.GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := schnorr.GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	signPub, encPub := g.EncodeElement(sign.Y), g.EncodeElement(enc.Y)
	nonce, err := c.Challenge()
	if err != nil {
		t.Fatal(err)
	}
	proof, err := sign.Prove(provider.RegisterContext(nonce), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(signPub, encPub, proof, nonce); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateAccount("kek-probe", 1); err != nil {
		t.Fatal(err)
	}
	coins, err := c.WithdrawCoins("kek-probe", 1)
	if err != nil {
		t.Fatal(err)
	}
	lic, err := c.Purchase("track-00", signPub, encPub, coins)
	if err != nil {
		t.Fatal(err)
	}
	if kek, err = dlkem.Decap(g, enc.X, lic.KeyWrap.KEM); err != nil {
		t.Fatal(err)
	}
	if _, err := lic.KeyWrap.Unwrap(g, enc.X, license.WrapLabelPersonalized(lic.Serial, lic.ContentID)); err != nil {
		t.Fatalf("the probe's KEK is not the one its license was sealed under: %v", err)
	}
	return encPub, kek
}

// TestPlaybackLinkableControl: the same harness with blinding disabled
// must link EVERY pair — the negative control proving the property
// test has teeth.
func TestPlaybackLinkableControl(t *testing.T) {
	const k = 8
	correlated, pairs, _, _, _ := runPlaybackPairs(t, k, true)
	if correlated != len(pairs) {
		t.Errorf("linkable control: attack correlated %d/%d pairs, want all",
			correlated, len(pairs))
	}
}
