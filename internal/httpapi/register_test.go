package httpapi

import (
	"errors"
	"math/big"
	"strings"
	"testing"

	"p2drm/internal/provider"
)

// A sign key outside the order-q subgroup — out of range, p−1 included,
// or a quadratic non-residue — is refused at registration with the 403
// `rejected` envelope naming the failure, and nothing is stored; the
// card's real key registers afterwards.
func TestRegisterRefusesSignKeyOutsideSubgroup(t *testing.T) {
	h := newV2Harness(t, Auth{})
	g := h.client.Group
	ps, err := h.card.Pseudonym(0)
	if err != nil {
		t.Fatal(err)
	}
	nonResidue := big.NewInt(2)
	for big.Jacobi(nonResidue, g.P) != -1 {
		nonResidue.Add(nonResidue, big.NewInt(1))
	}
	registrations := func() (n int) {
		h.store.PrefixScan([]byte("pseudonym:"), func(_, _ []byte) bool { n++; return true })
		return n
	}
	register := func(signPub []byte) error {
		t.Helper()
		nonce, err := h.client.Challenge()
		if err != nil {
			t.Fatal(err)
		}
		proof, err := h.card.Prove(0, provider.RegisterContext(nonce))
		if err != nil {
			t.Fatal(err)
		}
		return h.client.Register(signPub, ps.EncPublic(g), proof, nonce)
	}

	for _, tc := range []struct {
		name string
		y    *big.Int
		want string
	}{
		{"zero", big.NewInt(0), "schnorr: public key out of range"},
		{"one", big.NewInt(1), "schnorr: public key out of range"},
		{"p-1", new(big.Int).Sub(g.P, big.NewInt(1)), "schnorr: public key out of range"},
		{"p", g.P, "schnorr: public key out of range"},
		{"non-residue", nonResidue, "schnorr: public key not in prime-order subgroup"},
	} {
		err := register(g.EncodeElement(tc.y))
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != 403 || apiErr.Kind != "rejected" ||
			!strings.Contains(apiErr.Message, tc.want) {
			t.Errorf("%s: register = %v, want 403 rejected naming %q", tc.name, err, tc.want)
		}
		if n := registrations(); n != 0 {
			t.Fatalf("%s: %d registrations stored after a refusal", tc.name, n)
		}
	}
	if err := register(ps.SignPublic(g)); err != nil {
		t.Fatalf("the card's own key: %v", err)
	}
	if n := registrations(); n != 1 {
		t.Fatalf("%d registrations stored, want 1", n)
	}
}
