// Transfer: Alice resells a license to Bob without the provider learning
// that Alice and Bob ever interacted — the paper's headline protocol.
//
//	go run ./examples/transfer
package main

import (
	"bytes"
	"fmt"
	"log"

	"p2drm/internal/core"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
)

func main() {
	log.SetFlags(0)
	sys, err := core.NewSystem(core.Options{
		Group: schnorr.Group768(), RSABits: 1024, DenomKeyBits: 1024,
	})
	if err != nil {
		log.Fatal(err)
	}
	rights := rel.MustParse("grant play count 10; grant transfer;")
	if _, err := sys.Provider.AddContent("album-7", "Album Seven", 5, rights,
		[]byte("album bits")); err != nil {
		log.Fatal(err)
	}
	alice, _ := sys.NewUser("alice", 20)
	bob, _ := sys.NewUser("bob", 20)

	lic, err := sys.Purchase(alice, "album-7")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice holds %s…\n", lic.Serial.String()[:16])

	// Step 1 — Alice exchanges her license for an ANONYMOUS license: the
	// provider revokes her serial and blind-signs a serial it never sees.
	anon, err := sys.Exchange(alice, lic)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice obtained bearer token %s… (provider never saw this serial)\n",
		anon.Serial.String()[:16])

	// Step 2 — the bearer token changes hands OUT OF BAND (email, USB
	// stick, cash in a parking garage...). Here: a function argument.

	// Step 3 — Bob redeems under a fresh pseudonym.
	newLic, err := sys.Redeem(bob, anon)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob redeemed it into %s…\n", newLic.Serial.String()[:16])

	// Bob can play; Alice's old license is dead everywhere.
	dev, _ := sys.NewDevice("bob-hifi", "audio", "EU")
	var out bytes.Buffer
	if err := sys.Play(bob, dev, newLic, &out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob plays: %q\n", out.String())

	aliceDev, _ := sys.NewDevice("alice-hifi", "audio", "EU")
	if err := sys.Play(alice, aliceDev, lic, &out); err != nil {
		fmt.Printf("alice's stale copy refused: %v\n", err)
	}

	// The provider's view: an exchange and a redemption that share
	// nothing. It knows SOMEONE transferred SOME copy of album-7, which
	// is exactly the royalty-accounting signal the paper wants to keep —
	// and nothing more.
	fmt.Println("\nprovider journal:")
	for _, e := range sys.Events() {
		if e.Type == provider.EvExchange || e.Type == provider.EvRedeem {
			fmt.Printf("  #%d %-9s serial=%.12s anon=%.12s blinded=%.12s\n",
				e.Seq, e.Type, e.Serial, e.AnonSerial, e.BlindedHash)
		}
	}
	fmt.Println("exchange and redeem are cryptographically unlinkable.")
}
