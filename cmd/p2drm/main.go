// Command p2drm is the user-side CLI: a wallet (internal/wallet) kept in
// a directory — smartcard seed, pseudonym ledger, licences, and a purse
// of unspent coins — speaking to a p2drmd daemon. A buy that fails after
// its coins were withdrawn leaves them in the purse, and the next buy
// spends them before it withdraws anything.
//
//	p2drm -home ~/.p2drm init alice            create card + bank account
//	p2drm catalog                              list items
//	p2drm buy song-blue                        anonymous purchase
//	p2drm wallet                               list held licenses (and the purse)
//	p2drm -o out.bin play <serial-prefix>      compliant playback
//	p2drm -o tok.anon exchange <serial-prefix> retire license → bearer token
//	p2drm redeem tok.anon                      bearer token → new license
package main

import (
	"bytes"
	"crypto/rsa"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/device"
	"p2drm/internal/httpapi"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/wallet"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("p2drm: %v", err)
	}
}

// run parses args, runs one command and closes the wallet it opened.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("p2drm", flag.ContinueOnError)
	var (
		server = fs.String("server", "http://127.0.0.1:8474", "p2drmd base URL")
		home   = fs.String("home", ".p2drm", "local wallet directory")
		out    = fs.String("o", "", "output file (play/exchange)")
		lab    = fs.Bool("lab", false, "laboratory group parameters (must match the daemon)")
		token  = fs.String("token", "", "bearer token for a daemon with auth configured (user tier for buy/exchange/redeem, admin tier for init)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return errors.New("usage: p2drm [flags] init|catalog|buy|wallet|play|exchange|redeem ...")
	}
	group := schnorr.Group2048()
	if *lab {
		group = schnorr.Group768()
	}
	client := httpapi.NewClient(*server, group)
	client.Token = *token
	cfg := wallet.Config{Group: group, Party: client, Dir: *home}

	cmd, rest := fs.Arg(0), fs.Args()[1:]
	param, ok := params[cmd]
	if !ok {
		return fmt.Errorf("unknown command %q", cmd)
	}
	if len(rest) != len(strings.Fields(param)) {
		return fmt.Errorf("usage: p2drm [flags] %s %s", cmd, param)
	}
	var arg string
	if len(rest) == 1 {
		arg = rest[0]
	}
	switch cmd {
	case "init":
		return cmdInit(cfg, client, arg)
	case "catalog":
		return cmdCatalog(client, stdout)
	}
	w, err := wallet.Open(cfg)
	if err != nil {
		return fmt.Errorf("%w; run: p2drm init <account>", err)
	}
	defer func() { err = errors.Join(err, w.Close()) }()
	switch cmd {
	case "buy":
		return cmdBuy(w, client, arg)
	case "wallet":
		return cmdWallet(w, stdout)
	case "play":
		return cmdPlay(w, client, *home, arg, *out, stdout)
	case "exchange":
		return cmdExchange(w, arg, *out)
	default:
		return cmdRedeem(w, arg)
	}
}

// params names each command's one argument ("" for none).
var params = map[string]string{
	"init": "<bank-account-name>", "catalog": "", "buy": "<content-id>", "wallet": "",
	"play": "<serial-prefix>", "exchange": "<serial-prefix>", "redeem": "<token-file>",
}

func cmdInit(cfg wallet.Config, client *httpapi.Client, account string) error {
	w, err := wallet.Create(cfg, account, nil)
	if err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	// Try to open the account at the daemon's demo bank (ignore "exists").
	if err := client.CreateAccount(account, 50); err != nil &&
		!strings.Contains(err.Error(), "exists") {
		log.Printf("warning: bank account: %v", err)
	}
	log.Printf("wallet initialised in %s (account %q)", cfg.Dir, account)
	return nil
}

func cmdCatalog(client *httpapi.Client, stdout io.Writer) error {
	items, err := client.Catalog()
	if err != nil {
		return err
	}
	for _, it := range items {
		fmt.Fprintf(stdout, "%-12s %-28s %3d credits\n", it.ID, it.Title, it.PriceCredits)
	}
	return nil
}

func cmdBuy(w *wallet.Wallet, client *httpapi.Client, id string) error {
	items, err := client.Catalog()
	if err != nil {
		return err
	}
	price := -1
	for _, it := range items {
		if it.ID == id {
			price = int(it.PriceCredits)
		}
	}
	if price < 0 {
		return fmt.Errorf("content %q not in catalog", id)
	}
	idx, err := w.NewPseudonym()
	if err != nil {
		return err
	}
	lic, err := w.Buy(license.ContentID(id), price, idx)
	if err != nil {
		return err
	}
	log.Printf("bought %s — license %s (pseudonym #%d)", id, lic.Serial.String()[:16], idx)
	return nil
}

func cmdWallet(w *wallet.Wallet, stdout io.Writer) error {
	lics := w.Licenses("")
	for _, lic := range lics {
		fmt.Fprintf(stdout, "%s  %-12s issued %s\n",
			lic.Serial.String()[:16], lic.ContentID, lic.IssuedAt.Format(time.RFC3339))
	}
	if len(lics) == 0 {
		fmt.Fprintln(stdout, "(wallet empty)")
	}
	if n := w.Purse(); n > 0 {
		fmt.Fprintf(stdout, "purse: %d unspent coins\n", n)
	}
	return nil
}

func cmdPlay(w *wallet.Wallet, client *httpapi.Client, home, prefix, out string, stdout io.Writer) (err error) {
	lic, err := w.Find(prefix)
	if err != nil {
		return err
	}
	blob, err := client.Content(lic.ContentID)
	if err != nil {
		return err
	}
	sf, err := client.RevocationFilter()
	if err != nil {
		return err
	}
	// The device's use counters must be durable before it plays, or a
	// crash could hand back a play.
	devState, err := kvstore.OpenWith(filepath.Join(home, "device"), kvstore.Options{Sync: kvstore.SyncGroupCommit})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, devState.Close()) }()
	provPub, err := pinnedProviderKey(client, devState)
	if err != nil {
		return err
	}
	dev, err := device.New(device.Config{
		ID: "cli-device", Class: "audio", Region: "EU",
		Group: client.Group, ProviderPub: provPub, State: devState,
	})
	if err != nil {
		return err
	}
	if err := dev.InstallRevocationFilter(sf); err != nil {
		return err
	}
	dst := stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		dst = f
	}
	if err := w.Play(dev, lic, bytes.NewReader(blob), dst); err != nil {
		return err
	}
	if out != "" {
		log.Printf("played %s -> %s", lic.ContentID, out)
	}
	return nil
}

func cmdExchange(w *wallet.Wallet, prefix, out string) error {
	if out == "" {
		return fmt.Errorf("exchange requires -o <token-file>")
	}
	lic, err := w.Find(prefix)
	if err != nil {
		return err
	}
	anon, _, err := w.Exchange(lic)
	if anon != nil {
		// The token is the user's even if retiring the licence locally
		// failed: write it before reporting that.
		err = errors.Join(os.WriteFile(out, anon.Marshal(), 0o600), err)
	}
	if err != nil {
		return err
	}
	log.Printf("exchanged %s for bearer token %s (give this file to the recipient)", lic.Serial.String()[:16], out)
	return nil
}

func cmdRedeem(w *wallet.Wallet, file string) error {
	raw, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	anon, err := license.UnmarshalAnonymous(raw)
	if err != nil {
		return err
	}
	lic, err := w.Redeem(anon)
	if err != nil {
		return err
	}
	log.Printf("redeemed token -> license %s for %s", lic.Serial.String()[:16], lic.ContentID)
	return nil
}

// pinnedProviderKey implements trust-on-first-use for the provider's
// verification key, kept with the device's state: on first contact the
// key is fetched and stored; on later runs a changed key is refused (a
// swapped key would let a rogue server feed the device forged licenses
// and filters).
func pinnedProviderKey(client *httpapi.Client, st *kvstore.Store) (*rsa.PublicKey, error) {
	pub, err := client.ProviderKey()
	if err != nil {
		return nil, err
	}
	fetched := append(pub.N.Bytes(), byte(pub.E>>16), byte(pub.E>>8), byte(pub.E))
	if pinned, ok := st.Get([]byte("provider-key")); ok {
		if !bytes.Equal(pinned, fetched) {
			return nil, fmt.Errorf("provider key changed since first use; refusing")
		}
		return pub, nil
	}
	if err := st.Put([]byte("provider-key"), fetched); err != nil {
		return nil, err
	}
	return pub, nil
}
