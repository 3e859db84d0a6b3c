// Integration test: one scenario exercising every protocol in sequence,
// asserting the end-state invariants the paper promises. Complements the
// per-package tests by checking the pieces compose.
package p2drm_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"p2drm/internal/core"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/device"
	"p2drm/internal/linkage"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
)

// TestFullLifecycle walks the complete story: catalog → anonymous
// purchases → playback → unlinkable resale → delegation → a
// domain-restricted licence → revocation and double-redemption defense →
// privacy audit of the provider journal.
func TestFullLifecycle(t *testing.T) {
	now := time.Date(2004, 9, 15, 10, 0, 0, 0, time.UTC)
	sys, err := core.NewSystem(core.Options{
		Group: schnorr.Group768(), RSABits: 1024, DenomKeyBits: 1024,
		Clock: func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Catalog: a song and a domain-restricted movie.
	songRights := rel.MustParse("grant play count 5; grant transfer; delegate allow;")
	movieRights := rel.MustParse("grant play count 50; require domain;")
	if _, err := sys.Provider.AddContent("song", "Song", 2, songRights, []byte("song-bits")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Provider.AddContent("movie", "Movie", 5, movieRights, []byte("movie-bits")); err != nil {
		t.Fatal(err)
	}

	alice, _ := sys.NewUser("alice", 50)
	bob, _ := sys.NewUser("bob", 50)
	family, _ := sys.NewUser("family", 50)

	// --- anonymous purchase + playback ---
	songLic, err := sys.Purchase(alice, "song")
	if err != nil {
		t.Fatal(err)
	}
	dev, _, err := sys.NewDevice("alice-hifi", "audio", "EU")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := sys.Play(alice, dev, songLic, &out); err != nil {
		t.Fatalf("alice plays: %v", err)
	}
	if out.String() != "song-bits" {
		t.Fatal("wrong content")
	}

	// --- delegation before transfer: alice lends 1 play to bob ---
	star, starIdx, err := sys.Delegate(alice, songLic, bob, rel.MustParse("grant play count 1;"))
	if err != nil {
		t.Fatal(err)
	}
	bobDev, _, _ := sys.NewDevice("bob-hifi", "audio", "EU")
	out.Reset()
	if err := sys.PlayStar(bob, starIdx, bobDev, songLic, star, &out); err != nil {
		t.Fatalf("bob star play: %v", err)
	}
	if err := sys.PlayStar(bob, starIdx, bobDev, songLic, star, &out); err == nil {
		t.Fatal("bob exceeded 1-play delegation")
	}

	// --- unlinkable transfer alice → bob ---
	newLic, err := sys.Transfer(alice, songLic, bob)
	if err != nil {
		t.Fatal(err)
	}
	// Alice's copy is dead on refreshed devices...
	if err := sys.RefreshDevice(dev); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := sys.Play(alice, dev, songLic, &out); err == nil {
		t.Fatal("revoked license played")
	}
	// ...and the star license issued from it dies too (parent revoked).
	if err := sys.RefreshDevice(bobDev); err != nil {
		t.Fatal(err)
	}
	// Fresh device state so the counter isn't the reason for denial.
	bobDev2, _, _ := sys.NewDevice("bob-hifi-2", "audio", "EU")
	out.Reset()
	if err := sys.PlayStar(bob, starIdx, bobDev2, songLic, star, &out); err == nil {
		t.Fatal("star license survived parent revocation")
	}
	// Bob plays his new license.
	out.Reset()
	if err := sys.Play(bob, bobDev, newLic, &out); err != nil {
		t.Fatalf("bob plays transferred license: %v", err)
	}

	// --- the family buys the domain-restricted movie; no device outside
	// a domain plays it ---
	movieLic, err := sys.Purchase(family, "movie")
	if err != nil {
		t.Fatal(err)
	}
	tv, _, _ := sys.NewDevice("tv", "video", "EU")
	out.Reset()
	if err := sys.Play(family, tv, movieLic, &out); !errors.Is(err, device.ErrDenied) || !strings.Contains(err.Error(), "domain") {
		t.Fatalf("domain-restricted licence on a device in no domain: %v, want a domain denial", err)
	}

	// --- privacy audit of everything the provider saw ---
	events := sys.Provider.Events()
	truth := map[int]string{} // no labels: we only check structural leaks
	_ = truth
	// 1. No event carries a user name.
	for _, e := range events {
		for _, name := range []string{"alice", "bob", "family"} {
			if e.PseudonymFP == name {
				t.Fatalf("journal leaked name %q", name)
			}
		}
	}
	// 2. All purchase pseudonyms are distinct (fresh-pseudonym discipline).
	fps := map[string]int{}
	for _, e := range events {
		if e.Type == provider.EvPurchase {
			fps[e.PseudonymFP]++
		}
	}
	for fp, n := range fps {
		if n > 1 {
			t.Fatalf("pseudonym %s reused %d times", fp, n)
		}
	}
	// 3. The attack recovers nothing beyond singleton clusters among
	// transaction events.
	c := linkage.Attack(events, sys.Provider.DenomPublic)
	for _, a := range events {
		for _, b := range events {
			if a.Seq >= b.Seq {
				continue
			}
			if !transactionEv(a.Type) || !transactionEv(b.Type) {
				continue
			}
			if a.PseudonymFP != "" && a.PseudonymFP == b.PseudonymFP {
				continue // same interaction pair (register+purchase)
			}
			if c.SameCluster(a.Seq, b.Seq) {
				t.Fatalf("attack linked events %d and %d", a.Seq, b.Seq)
			}
		}
	}
	// 4. Conservation: coins settled == prices paid.
	wantRevenue := int64(2 + 5) // song + movie (the transfer is free)
	if bal, _ := sys.Bank.Balance("provider"); bal != wantRevenue {
		t.Fatalf("provider revenue = %d, want %d", bal, wantRevenue)
	}
}

func transactionEv(t provider.EventType) bool {
	return t == provider.EvPurchase || t == provider.EvExchange || t == provider.EvRedeem
}

// TestManyUsersManyTransfers is a soak: a chain of transfers through ten
// users must preserve exactly one live license and revoke nine.
func TestTransferChain(t *testing.T) {
	sys, err := core.NewSystem(core.Options{
		Group: schnorr.Group768(), RSABits: 1024, DenomKeyBits: 1024,
		Clock: func() time.Time { return time.Date(2004, 9, 1, 0, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Provider.AddContent("c", "C", 1, rel.MustParse("grant play; grant transfer;"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	users := make([]*core.User, 10)
	for i := range users {
		users[i], _ = sys.NewUser(fmt.Sprintf("u%d", i), 10)
	}
	lic, err := sys.Purchase(users[0], "c")
	if err != nil {
		t.Fatal(err)
	}
	serials := []string{lic.Serial.String()}
	for i := 1; i < len(users); i++ {
		lic, err = sys.Transfer(users[i-1], lic, users[i])
		if err != nil {
			t.Fatalf("hop %d: %v", i, err)
		}
		serials = append(serials, lic.Serial.String())
	}
	if sys.Provider.RevokedCount() != 9 {
		t.Errorf("revoked = %d, want 9", sys.Provider.RevokedCount())
	}
	// Final holder plays; every prior serial is dead.
	dev, _, _ := sys.NewDevice("d", "audio", "EU")
	var out bytes.Buffer
	if err := sys.Play(users[9], dev, lic, &out); err != nil {
		t.Fatalf("final holder: %v", err)
	}
	seen := map[string]bool{}
	for _, s := range serials {
		if seen[s] {
			t.Fatal("serial reused along the chain")
		}
		seen[s] = true
	}
}
