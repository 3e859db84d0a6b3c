package httpapi

import (
	"crypto/rand"
	"errors"
	"strings"
	"testing"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/license"
	"p2drm/internal/provider"
	"p2drm/internal/smartcard"
)

// registerCardOverHTTP registers pseudonym index of card through the SDK.
func registerCardOverHTTP(t *testing.T, c *Client, card *smartcard.Card, index uint32) (signPub, encPub []byte) {
	t.Helper()
	ps, err := card.Pseudonym(index)
	if err != nil {
		t.Fatal(err)
	}
	nonce, err := c.Challenge()
	if err != nil {
		t.Fatal(err)
	}
	proof, err := card.Prove(index, provider.RegisterContext(nonce))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(ps.SignPublic(c.Group), ps.EncPublic(c.Group), proof, nonce); err != nil {
		t.Fatal(err)
	}
	return ps.SignPublic(c.Group), ps.EncPublic(c.Group)
}

// kemShares reads p2drm_crypto_kem_shares_total off /v2/metrics.
func kemShares(t *testing.T, c *Client) (cached, computed float64) {
	t.Helper()
	const family = "p2drm_crypto_kem_shares_total"
	return scrapeLabelled(t, c, family, map[string]string{"result": "cached"}),
		scrapeLabelled(t, c, family, map[string]string{"result": "computed"})
}

// A registered sign key beside an enc key it was not registered with is
// an unregistered pseudonym on the wire too: the same 403 `rejected`
// envelope, word for word, and it costs nothing — no coin deposited, no
// serial burned, no share computed — on the single and the batch routes.
func TestForeignEncKeyIsAnUnregisteredPseudonym(t *testing.T) {
	h := newV2Harness(t, Auth{})
	g := h.client.Group
	sign0, enc0 := registerCardOverHTTP(t, h.client, h.card, 0)
	stranger, _ := h.card.Pseudonym(9) // never registered
	own, err := schnorr.GenerateKey(g, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	foreignEnc := g.EncodeElement(own.Y)

	coins, err := h.client.WithdrawCoins("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	refusal := func(what string, err error) *APIError {
		t.Helper()
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("%s: err = %v, want a refusal envelope", what, err)
		}
		if apiErr.StatusCode != 403 || apiErr.Kind != "rejected" ||
			!strings.Contains(apiErr.Message, provider.ErrUnknownPseudonym.Error()) {
			t.Errorf("%s: %v, want 403 rejected %q", what, apiErr, provider.ErrUnknownPseudonym)
		}
		return apiErr
	}

	_, err = h.client.Purchase("song-1", stranger.SignPublic(g), stranger.EncPublic(g), coins)
	unregistered := refusal("purchase by an unregistered pseudonym", err)
	_, err = h.client.Purchase("song-1", sign0, foreignEnc, coins)
	if got := refusal("purchase naming a foreign enc key", err); *got != *unregistered {
		t.Errorf("the two refusals differ: %v vs %v", got, unregistered)
	}
	_, slotErrs, err := h.client.PurchaseBatch([]BatchPurchase{{ContentID: "song-1", SignPub: sign0, EncPub: foreignEnc, Coins: coins}})
	if err != nil {
		t.Fatal(err)
	}
	if slotErrs[0] == nil || !strings.Contains(slotErrs[0].Error(), provider.ErrUnknownPseudonym.Error()) {
		t.Errorf("batch purchase naming a foreign enc key: slot error %v", slotErrs[0])
	}
	if bal := balance(t, h.bank, "provider"); bal != 0 {
		t.Fatalf("refused purchases deposited %d coins", bal)
	}
	if cached, computed := kemShares(t, h.client); cached+computed != 0 {
		t.Errorf("refused purchases reached the KEM sender: cached=%v computed=%v", cached, computed)
	}
	lic, err := h.client.Purchase("song-1", sign0, enc0, coins)
	if err != nil {
		t.Fatalf("the same coins under the registered pair: %v", err)
	}

	// Same on the redeeming side: retire the license, present its token
	// under the wrong pair, then under the right one.
	denomPub, denomID, err := h.client.Denomination("song-1")
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := license.NewSerial()
	blinded, st, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := h.client.Challenge()
	proof, _ := h.card.Prove(0, provider.ExchangeContext(nonce, lic.Serial))
	blindSig, err := h.client.Exchange(lic, proof, nonce, blinded)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := rsablind.Unblind(denomPub, st, blindSig)
	if err != nil {
		t.Fatal(err)
	}
	anon := &license.Anonymous{Serial: serial, Denom: denomID, Sig: sig}

	_, err = h.client.Redeem(anon, sign0, foreignEnc)
	refusal("redeem naming a foreign enc key", err)
	_, slotErrs, err = h.client.RedeemBatch([]BatchRedeem{{Anonymous: anon, SignPub: sign0, EncPub: foreignEnc}})
	if err != nil {
		t.Fatal(err)
	}
	if slotErrs[0] == nil || !strings.Contains(slotErrs[0].Error(), provider.ErrUnknownPseudonym.Error()) {
		t.Errorf("batch redeem naming a foreign enc key: slot error %v", slotErrs[0])
	}
	if _, err := h.client.Redeem(anon, sign0, enc0); err != nil {
		t.Fatalf("redeem under the registered pair after the refusals: %v", err)
	}
}

// p2drm_crypto_kem_shares_total over a bulk purchase by one standing
// pseudonym and a first purchase by another: one computed share per
// pseudonym, every other wrap cached.
func TestKEMShareMetric(t *testing.T) {
	h := newV2Harness(t, Auth{})
	sign0, enc0 := registerCardOverHTTP(t, h.client, h.card, 0)
	const n = 6
	coins, err := h.client.WithdrawCoins("alice", n)
	if err != nil {
		t.Fatal(err)
	}
	// The first license alone, so the batch behind it finds the share
	// whatever the number of workers.
	if _, err := h.client.Purchase("song-1", sign0, enc0, coins[:1]); err != nil {
		t.Fatal(err)
	}
	items := make([]BatchPurchase, n-1)
	for i := range items {
		items[i] = BatchPurchase{ContentID: "song-1", SignPub: sign0, EncPub: enc0, Coins: coins[i+1 : i+2]}
	}
	_, slotErrs, err := h.client.PurchaseBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range slotErrs {
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	if cached, computed := kemShares(t, h.client); cached != n-1 || computed != 1 {
		t.Errorf("after %d licenses to one pseudonym: cached=%v computed=%v, want %d/1", n, cached, computed, n-1)
	}
	// A pseudonym nobody wrapped to yet costs its one share.
	sign1, enc1 := registerCardOverHTTP(t, h.client, h.card, 1)
	more, err := h.client.WithdrawCoins("alice", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.client.Purchase("song-1", sign1, enc1, more); err != nil {
		t.Fatal(err)
	}
	if cached, computed := kemShares(t, h.client); cached != n-1 || computed != 2 {
		t.Errorf("after a license to a second pseudonym: cached=%v computed=%v, want %d/2", cached, computed, n-1)
	}
}

// rsaPrivateOps reads p2drm_crypto_rsa_private_ops_total off /v2/metrics.
func rsaPrivateOps(t *testing.T, c *Client) (licenseKey, denomination, coin float64) {
	t.Helper()
	const family = "p2drm_crypto_rsa_private_ops_total"
	return scrapeLabelled(t, c, family, map[string]string{"key": "license"}),
		scrapeLabelled(t, c, family, map[string]string{"key": "denomination"}),
		scrapeLabelled(t, c, family, map[string]string{"key": "coin"})
}

// p2drm_crypto_rsa_private_ops_total over the wire: a list withdrawal
// costs the coin key one operation per coin, a batch purchase by one
// pseudonym costs the license key ONE whatever its size — and every
// license of it decodes, path included, and verifies client-side — a
// single purchase one, an exchange the denomination key one.
func TestRSAPrivateOpsMetric(t *testing.T) {
	h := newV2Harness(t, Auth{})
	sign0, enc0 := registerCardOverHTTP(t, h.client, h.card, 0)
	if l, d, c := rsaPrivateOps(t, h.client); l+d+c != 0 {
		t.Fatalf("before any signature: license=%v denomination=%v coin=%v", l, d, c)
	}
	const n = 9
	coins, err := h.client.WithdrawCoins("alice", n+1)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]BatchPurchase, n)
	for i := range items {
		items[i] = BatchPurchase{ContentID: "song-1", SignPub: sign0, EncPub: enc0, Coins: coins[i : i+1]}
	}
	lics, slotErrs, err := h.client.PurchaseBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	provPub, err := h.client.ProviderKey()
	if err != nil {
		t.Fatal(err)
	}
	for i, lic := range lics {
		if slotErrs[i] != nil {
			t.Fatalf("slot %d: %v", i, slotErrs[i])
		}
		if err := license.VerifyPersonalized(provPub, lic); err != nil {
			t.Errorf("slot %d: license off the wire does not verify: %v", i, err)
		}
		if len(lic.Path.Siblings) == 0 {
			t.Errorf("slot %d: a license of a %d-license call arrived without a path", i, n)
		}
	}
	if l, d, c := rsaPrivateOps(t, h.client); l != 1 || d != 0 || c != n+1 {
		t.Errorf("after a %d-coin list and a %d-license batch: license=%v denomination=%v coin=%v, want 1/0/%d", n+1, n, l, d, c, n+1)
	}
	alone, err := h.client.Purchase("song-1", sign0, enc0, coins[n:])
	if err != nil {
		t.Fatal(err)
	}
	if len(alone.Path.Siblings) != 0 {
		t.Errorf("a license bought alone arrived with a path of %d", len(alone.Path.Siblings))
	}
	denomPub, denomID, err := h.client.Denomination("song-1")
	if err != nil {
		t.Fatal(err)
	}
	serial, _ := license.NewSerial()
	blinded, _, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := h.client.Challenge()
	proof, _ := h.card.Prove(0, provider.ExchangeContext(nonce, lics[3].Serial))
	if _, err := h.client.Exchange(lics[3], proof, nonce, blinded); err != nil {
		t.Fatalf("exchange of a license out of the batch: %v", err)
	}
	if l, d, c := rsaPrivateOps(t, h.client); l != 2 || d != 1 || c != n+1 {
		t.Errorf("after a single purchase and an exchange: license=%v denomination=%v coin=%v, want 2/1/%d", l, d, c, n+1)
	}
}
