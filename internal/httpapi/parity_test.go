package httpapi

// The route-level half of the provider's parity suite: a single route
// and a one-slot call to its /batch route refuse alike, with the same
// message and the same kind. The stale key id lives here because only the
// wire lets both forms name a key.

import (
	"crypto/rand"
	"encoding/json"
	"net/http"
	"testing"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/license"
)

// refusedAlone posts body to a single route and returns the refusal's kind
// and message.
func refusedAlone(t *testing.T, h *v2Harness, route string, body any) (kind, msg string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	status, env := rawV2(t, h.srv.URL, "POST", route, "", string(raw))
	if status != http.StatusForbidden {
		t.Fatalf("%s: status %d, want 403", route, status)
	}
	var er struct {
		Message string `json:"message"`
		Kind    string `json:"kind"`
	}
	if err := json.Unmarshal(env.Result, &er); err != nil {
		t.Fatal(err)
	}
	return er.Kind, er.Message
}

// refusedInBatch posts body as the one slot of a batch route (field names
// the slot list) and returns the slot's kind and error; a batch slot
// reports no kind where the single route's is "rejected".
func refusedInBatch(t *testing.T, h *v2Harness, route, field string, body any) (kind, msg string) {
	t.Helper()
	raw, err := json.Marshal(map[string]any{field: []any{body}})
	if err != nil {
		t.Fatal(err)
	}
	status, env := rawV2(t, h.srv.URL, "POST", route, "", string(raw))
	if status != http.StatusOK {
		t.Fatalf("%s: status %d, want 200", route, status)
	}
	var resp struct {
		Results []struct {
			Error string `json:"error"`
			Kind  string `json:"kind"`
		} `json:"results"`
	}
	if err := json.Unmarshal(env.Result, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Error == "" {
		t.Fatalf("%s: results %+v, want one refused slot", route, resp.Results)
	}
	kind = resp.Results[0].Kind
	if kind == "" {
		kind = "rejected"
	}
	return kind, resp.Results[0].Error
}

// anonymousOverHTTP buys song-1 for pseudonym 0 and exchanges it through
// the SDK: an anonymous license nobody has redeemed.
func anonymousOverHTTP(t *testing.T, h *v2Harness) *license.Anonymous {
	t.Helper()
	ex := exchangeOverHTTP(t, h)
	denomPub, denomID, err := h.client.Denomination("song-1")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := license.NewSerial()
	if err != nil {
		t.Fatal(err)
	}
	blinded, st, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blindSig, err := h.client.Exchange(ex.License, ex.Proof, ex.Nonce, blinded)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := rsablind.Unblind(denomPub, st, blindSig)
	if err != nil {
		t.Fatal(err)
	}
	return &license.Anonymous{Serial: serial, Denom: denomID, Sig: sig}
}

func TestSingleRouteAndBatchOfOneRefuseAlike(t *testing.T) {
	for _, tc := range []struct {
		step, name string
		route      string // the single route; its batch is route + "/batch"
		field      string // the batch body's slot list
		wantKind   string
		body       func(t *testing.T, h *v2Harness) any // fresh inputs per call
	}{
		{"purchase", "unknown pseudonym", "/v2/purchase", "purchases", "rejected",
			func(t *testing.T, h *v2Harness) any {
				ps, _ := h.card.Pseudonym(9)
				coins, err := h.bank.WithdrawCoins("alice", 1)
				if err != nil {
					t.Fatal(err)
				}
				return encodePurchases([]BatchPurchase{{ContentID: "song-1",
					SignPub: ps.SignPublic(h.client.Group), EncPub: ps.EncPublic(h.client.Group), Coins: coins}})[0]
			}},
		{"purchase", "double-spent coin", "/v2/purchase", "purchases", "rejected",
			func(t *testing.T, h *v2Harness) any {
				signPub, encPub := registerCardOverHTTP(t, h.client, h.card, 0)
				coins, err := h.bank.WithdrawCoins("alice", 1)
				if err != nil {
					t.Fatal(err)
				}
				h.bank.CreateAccount("other-shop", 0)
				if err := h.bank.Deposit("other-shop", coins[0]); err != nil {
					t.Fatal(err)
				}
				return encodePurchases([]BatchPurchase{{ContentID: "song-1", SignPub: signPub, EncPub: encPub, Coins: coins}})[0]
			}},
		{"exchange", "stale key id", "/v2/exchange", "exchanges", kindStaleKey,
			func(t *testing.T, h *v2Harness) any {
				req := h.client.exchangeRequest(exchangeOverHTTP(t, h))
				req.KeyID = "0123456789abcdef"
				return req
			}},
		{"exchange", "dead nonce", "/v2/exchange", "exchanges", kindBadNonce,
			func(t *testing.T, h *v2Harness) any {
				ex := exchangeOverHTTP(t, h)
				ex.Nonce = "bogus"
				return h.client.exchangeRequest(ex)
			}},
		{"redeem", "unknown denomination", "/v2/redeem", "redeems", "rejected",
			func(t *testing.T, h *v2Harness) any {
				signPub, encPub := registerCardOverHTTP(t, h.client, h.card, 1)
				anon := anonymousOverHTTP(t, h)
				anon.Denom[0] ^= 0xFF
				return RedeemRequest{Anonymous: b64(anon.Marshal()), SignPub: b64(signPub), EncPub: b64(encPub)}
			}},
		{"redeem", "second redeem", "/v2/redeem", "redeems", "rejected",
			func(t *testing.T, h *v2Harness) any {
				signPub, encPub := registerCardOverHTTP(t, h.client, h.card, 1)
				anon := anonymousOverHTTP(t, h)
				if _, err := h.client.Redeem(anon, signPub, encPub); err != nil {
					t.Fatal(err)
				}
				return RedeemRequest{Anonymous: b64(anon.Marshal()), SignPub: b64(signPub), EncPub: b64(encPub)}
			}},
	} {
		t.Run(tc.step+"/"+tc.name, func(t *testing.T) {
			h := newV2Harness(t, Auth{})
			kind, msg := refusedAlone(t, h, tc.route, tc.body(t, h))
			bkind, bmsg := refusedInBatch(t, h, tc.route+"/batch", tc.field, tc.body(t, h))
			if kind != tc.wantKind || bkind != tc.wantKind {
				t.Errorf("kinds: single %q, batch of one %q, want %q", kind, bkind, tc.wantKind)
			}
			if msg != bmsg {
				t.Errorf("messages differ:\n single:       %s\n batch of one: %s", msg, bmsg)
			}
		})
	}
}
