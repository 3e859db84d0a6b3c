// Quickstart: stand up a P2DRM world in-process, buy a song anonymously,
// play it on a compliant device, then talk to the same provider over
// the /v2 REST API with the client SDK.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"
	"net/http/httptest"

	"p2drm/internal/core"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/httpapi"
	"p2drm/internal/rel"
)

func main() {
	log.SetFlags(0)

	// 1. Assemble the system: a content provider and an anonymous-cash
	//    bank with fresh keys. Lab parameters keep the demo instant;
	//    drop the Group/RSABits overrides for production sizes.
	sys, err := core.NewSystem(core.Options{
		Group:        schnorr.Group768(),
		RSABits:      1024,
		DenomKeyBits: 1024,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. The provider lists a song: 3 credits, 10 plays, transferable.
	rights := rel.MustParse(`
grant play count 10;
grant transfer;
delegate allow;
`)
	if _, err := sys.Provider.AddContent("song-1", "Demo Song", 3, rights,
		[]byte("~~ demo audio frames ~~")); err != nil {
		log.Fatal(err)
	}

	// 3. Alice gets a smartcard and a funded bank account. Her NAME
	//    exists only on this side of the wire — the provider will only
	//    ever see unlinkable pseudonyms and untraceable coins.
	alice, err := sys.NewUser("alice", 20)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Anonymous purchase: fresh pseudonym, Schnorr proof of key
	//    ownership, blind-signed coins, personalized license back.
	lic, err := sys.Purchase(alice, "song-1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("license %s… issued for %s\n", lic.Serial.String()[:16], lic.ContentID)
	fmt.Printf("rights:\n%s", lic.Rights)

	// 5. Playback on a compliant device: provider signature check,
	//    revocation filter, smartcard challenge, rights evaluation,
	//    metered counter, then decryption.
	dev, err := sys.NewDevice("living-room", "audio", "EU")
	if err != nil {
		log.Fatal(err)
	}
	var out bytes.Buffer
	if err := sys.Play(alice, dev, lic, &out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("played: %q\n", out.String())

	// 6. What did the provider actually learn? Inspect its journal.
	fmt.Println("\nprovider journal (everything the provider saw):")
	for _, e := range sys.Events() {
		fmt.Printf("  #%d %-9s pseudonym=%.12s content=%s\n",
			e.Seq, e.Type, e.PseudonymFP, e.ContentID)
	}
	fmt.Println("no names, no accounts, no linkable identifiers.")

	// 7. The same provider over the wire: serve the /v2 REST API and use
	//    the SDK's envelope helpers. In production this is cmd/p2drmd;
	//    here an httptest server keeps the demo self-contained.
	srv := httptest.NewServer(httpapi.NewServer(sys.Provider).WithBank(sys.Bank))
	defer srv.Close()
	client := httpapi.NewClient(srv.URL, sys.Group)

	// Sync request: one call decodes the {"type":"sync",...} envelope.
	catalog, err := client.Catalog()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n/v2/catalog: %d item(s); first: %q at %d credits\n",
		len(catalog), catalog[0].Title, catalog[0].PriceCredits)
}
