package main

// In-process probes: timed calls into each layer's public functions, on
// durable temp stores and with the daemon's crypto configuration
// (Group768, fixed-base table, nonce pool). Iteration counts are fixed
// and every figure is the median of its timed calls, so a probe prices a
// layer without HTTP, scheduling or queueing around it.

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"p2drm/internal/cryptox/dlkem"
	"p2drm/internal/cryptox/kdf"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
	"p2drm/internal/replica"
	"p2drm/internal/revocation"
	"p2drm/internal/smartcard"
)

// probeRecords sizes the store behind the replay, revocation and
// catch-up probes.
const probeRecords = 100_000

// prober accumulates probe results; the first error stops further work.
type prober struct {
	out   map[string]float64
	scale int // iteration counts are divided by this (10 in quick mode)
	err   error
}

func (p *prober) iters(n int) int { return max(n/p.scale, 1) }

// time runs fn n times, timing each call, and returns the median in ns
// (0 once the prober has failed). name labels an error.
func (p *prober) time(name string, n int, fn func(i int) error) float64 {
	if p.err != nil {
		return 0
	}
	took := make([]float64, p.iters(n))
	for i := range took {
		start := time.Now()
		if err := fn(i); err != nil {
			p.err = fmt.Errorf("%s: %w", name, err)
			return 0
		}
		took[i] = float64(time.Since(start))
	}
	return median(took)
}

// each records the median of n timed calls of fn under name.
func (p *prober) each(name string, n int, fn func(i int) error) {
	p.record(name, p.time(name, n, fn))
}

// perItem records the median of n timed batchSize-item calls, per item.
func (p *prober) perItem(name string, n int, fn func(i int) error) {
	p.record(name, p.time(name, n, fn)/batchSize)
}

// loop times rounds of inner back-to-back calls and records the median
// per-call time: for calls too short to time one by one.
func (p *prober) loop(name string, rounds, inner int, fn func(i int) error) {
	if p.err != nil {
		return
	}
	inner = p.iters(inner)
	per := make([]float64, rounds)
	for r := range per {
		start := time.Now()
		for i := 0; i < inner; i++ {
			if err := fn(r*inner + i); err != nil {
				p.err = fmt.Errorf("%s: %w", name, err)
				return
			}
		}
		per[r] = float64(time.Since(start)) / float64(inner)
	}
	p.record(name, median(per))
}

// record stores ns under name in the unit its suffix asks for.
func (p *prober) record(name string, ns float64) {
	if p.err != nil {
		return
	}
	switch {
	case strings.HasSuffix(name, "_ns"):
		p.out[name] = ns
	case strings.HasSuffix(name, "_ms"):
		p.out[name] = ns / 1e6
	default: // _us and _us_per_item
		p.out[name] = ns / 1e3
	}
}

// must folds a set-up error into the prober.
func (p *prober) must(err error) bool {
	if err != nil && p.err == nil {
		p.err = err
	}
	return p.err == nil
}

var probeTemplate = rel.MustParse(`
grant play count 25;
grant transfer;
delegate allow;
valid until "2030-01-01T00:00:00Z";
`)

// daemonStore opens a store the way p2drmd opens its durable stores.
func daemonStore(dir string) (*kvstore.Store, error) {
	return kvstore.OpenWith(dir, kvstore.Options{Sync: kvstore.SyncGroupCommit})
}

// runProbes fills out with every probe metric.
func runProbes(e *env, out map[string]float64) error {
	dir := filepath.Join(e.runDir, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p := &prober{out: out, scale: 1}
	if e.quick {
		p.scale = 10
	}
	g := schnorr.Group768()
	// The card probe runs first, on the group as a client holds it; the
	// daemon's accelerators are switched on after it.
	card := smartcard.New(g, [kdf.SeedLen]byte{1})
	p.each("smartcard.prove_us", 60, func(i int) error {
		_, err := card.Prove(0, []byte("probe"))
		return err
	})
	g.Precompute()
	g.EnableNoncePool(256, 1)
	defer g.DisableNoncePool()
	probeCrypto(p, g)
	probeKVStore(p, e, dir)
	probeBigStore(p, e, dir)
	probeProvider(p, g, dir)
	return p.err
}

func probeCrypto(p *prober, g *schnorr.Group) {
	sk, err := schnorr.GenerateKey(g, rand.Reader)
	if !p.must(err) {
		return
	}
	ctx := []byte("probe context")
	var proof *schnorr.Proof
	p.each("cryptox.schnorr_prove_us", 60, func(int) (err error) {
		proof, err = sk.Prove(ctx, rand.Reader)
		return err
	})
	p.each("cryptox.schnorr_verify_us", 60, func(int) error {
		return schnorr.VerifyProof(g, sk.Y, ctx, proof)
	})
	items := make([]schnorr.BatchProofItem, batchSize)
	for i := range items {
		items[i] = schnorr.BatchProofItem{Y: sk.Y, Context: ctx, Proof: proof}
	}
	p.perItem("cryptox.schnorr_verify_batch16_us_per_item", 10, func(int) error {
		return errors.Join(schnorr.VerifyProofBatch(g, items, rand.Reader)...)
	})
	x := new(big.Int).Rsh(g.Q, 1)
	p.each("cryptox.expg_us", 100, func(int) error {
		g.ExpG(x)
		return nil
	})
	var ct []byte
	p.each("cryptox.kem_encap_us", 60, func(int) (err error) {
		ct, _, err = dlkem.Encap(g, sk.Y, rand.Reader)
		return err
	})
	p.each("cryptox.kem_decap_us", 60, func(int) error {
		_, err := dlkem.Decap(g, sk.X, ct)
		return err
	})

	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if !p.must(err) {
		return
	}
	signer, err := rsablind.NewSigner(key)
	if !p.must(err) {
		return
	}
	pub, msg := signer.Public(), []byte("probe message")
	var blob, sig []byte
	var st *rsablind.State
	blind := func(int) (err error) {
		blob, st, err = rsablind.Blind(pub, msg, rand.Reader)
		return err
	}
	p.must(blind(0))
	p.each("cryptox.rsablind_sign_us", 60, func(int) (err error) {
		sig, err = signer.SignBlinded(blob)
		return err
	})
	// Blind and unblind bracket an untimed signature, so time them apart
	// and add the medians.
	const blindUnblind = "cryptox.rsablind_blind_unblind_us"
	blindNS := p.time(blindUnblind, 60, blind)
	if p.err == nil {
		sig, err = signer.SignBlinded(blob)
		p.must(err)
	}
	var clear []byte
	p.record(blindUnblind, blindNS+p.time(blindUnblind, 60, func(int) (err error) {
		clear, err = rsablind.Unblind(pub, st, sig)
		return err
	}))
	p.each("cryptox.rsablind_verify_us", 60, func(int) error {
		return rsablind.Verify(pub, msg, clear)
	})
}

// probeKVStore prices durable writes on a group-commit store.
func probeKVStore(p *prober, e *env, dir string) {
	st, err := daemonStore(filepath.Join(dir, "kv"))
	if !p.must(err) {
		return
	}
	defer st.Close()
	val := make([]byte, 128)
	p.each("kvstore.put_durable_us", 200, func(i int) error {
		return st.Put([]byte(fmt.Sprintf("one-%06d", i)), val)
	})
	if p.err != nil {
		return
	}
	// nproc concurrent writers share fsyncs; the figure is the median
	// latency one writer sees per put.
	n := p.iters(200)
	took := make([][]float64, e.workers)
	errs := make([]error, e.workers)
	var wg sync.WaitGroup
	for w := range took {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n && errs[w] == nil; i++ {
				start := time.Now()
				errs[w] = st.Put([]byte(fmt.Sprintf("conc-%d-%06d", w, i)), val)
				took[w] = append(took[w], float64(time.Since(start)))
			}
		}(w)
	}
	wg.Wait()
	var all []float64
	for w := range took {
		p.must(errs[w])
		all = append(all, took[w]...)
	}
	if p.err == nil {
		p.record("kvstore.put_durable_conc_us", median(all))
	}
}

// probeBigStore builds one probeRecords-entry revocation store and times
// the index paths, a cold reopen, the revocation list on top of it and a
// follower catching up with it.
func probeBigStore(p *prober, e *env, dir string) {
	if p.err != nil {
		return
	}
	n := probeRecords / p.scale
	bigDir := filepath.Join(dir, "big")
	if !p.must(preloadRevoked(bigDir, n, e.seed)) {
		return
	}
	var st *kvstore.Store
	p.each("kvstore.replay_ms", 3, func(int) (err error) {
		if st != nil {
			if err := st.Close(); err != nil {
				return err
			}
		}
		st, err = kvstore.Open(bigDir)
		return err
	})
	if p.err != nil {
		return
	}
	defer st.Close()
	if st.Len() != n {
		p.err = fmt.Errorf("reopened store has %d keys, want %d", st.Len(), n)
		return
	}
	p.loop("kvstore.get_ns", 5, 20_000, func(i int) error {
		if _, ok := st.Get(revocation.StoreKey(serialFor(e.seed, "revoked", i%n))); !ok {
			return fmt.Errorf("preloaded key %d missing", i%n)
		}
		return nil
	})
	// Opened the way the provider opens it: the default filter capacity is
	// below the record count, so Open starts a background rebuild; the
	// figure runs until the right-sized filter is in place.
	var list *revocation.List
	p.each("revocation.open_ms", 3, func(int) (err error) {
		if list, err = revocation.Open(st, 0); err == nil {
			list.Rebuild()
		}
		return err
	})
	if p.err != nil {
		return
	}
	p.loop("revocation.contains_ns", 5, 20_000, func(i int) error {
		class := [2]string{"revoked", "live"}[i%2]
		if list.Contains(serialFor(e.seed, class, i%n)) != (class == "revoked") {
			return fmt.Errorf("contains(%s %d) is wrong", class, i%n)
		}
		return nil
	})
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if !p.must(err) {
		return
	}
	signer, err := rsablind.NewSigner(key)
	if !p.must(err) {
		return
	}
	p.each("revocation.export_filter_us", 10, func(int) error {
		_, err := list.ExportFilter(signer, time.Now())
		return err
	})

	infos, err := st.Manifest()
	if !p.must(err) {
		return
	}
	var logBytes int64
	for _, info := range infos {
		logBytes += info.Bytes
	}
	src := replica.NewSource(st)
	catchupNS := p.time("replica.catchup_mb_per_s", 3, func(int) error {
		f, err := replica.Open(replica.Options{Fetch: replica.LocalFetcher{Src: src}, PollInterval: time.Millisecond})
		if err != nil {
			return err
		}
		f.Start()
		for s := f.Status(); !s.CaughtUp || s.LagBytes != 0; s = f.Status() {
			time.Sleep(200 * time.Microsecond)
		}
		if got := f.Stats().LiveKeys; got != n {
			f.Close()
			return fmt.Errorf("follower caught up with %d keys, want %d", got, n)
		}
		return f.Close()
	})
	if p.err == nil {
		p.out["replica.catchup_mb_per_s"] = float64(logBytes) / 1e6 / (catchupNS / 1e9)
	}
	// Last, because it grows the store the figures above depend on.
	p.loop("kvstore.putifabsent_ns", 5, 2_000, func(i int) error {
		fresh, err := st.PutIfAbsent([]byte(fmt.Sprintf("absent-%07d", i)), nil)
		if err == nil && !fresh {
			err = fmt.Errorf("key %d was already present", i)
		}
		return err
	})
}

// probeProvider builds a bank and a provider the way p2drmd does and
// times direct calls: no HTTP, one caller.
func probeProvider(p *prober, g *schnorr.Group, dir string) {
	if p.err != nil {
		return
	}
	keys := make([]*rsa.PrivateKey, 2)
	for i := range keys {
		var err error
		if keys[i], err = rsa.GenerateKey(rand.Reader, 1024); !p.must(err) {
			return
		}
	}
	spent, err := daemonStore(filepath.Join(dir, "bank"))
	if !p.must(err) {
		return
	}
	defer spent.Close()
	store, err := daemonStore(filepath.Join(dir, "provider"))
	if !p.must(err) {
		return
	}
	defer store.Close()
	bank, err := payment.NewBankSharded(keys[0], spent, payment.DefaultBankShards)
	if !p.must(err) {
		return
	}
	p.must(bank.CreateAccount("provider", 0))
	p.must(bank.CreateAccount("user", 1<<40))
	prov, err := provider.New(provider.Config{
		Group: g, SignerKey: keys[1], DenomKeyBits: 1024, Store: store,
		Bank: bank, BankAccount: "provider", Clock: time.Now,
	})
	if !p.must(err) {
		return
	}
	const price = 2
	_, err = prov.AddContent(contentID, "probe", price, probeTemplate, []byte("probe content payload"))
	if !p.must(err) {
		return
	}
	ctx := context.Background()
	card := smartcard.New(g, [kdf.SeedLen]byte{2})
	const n = 30
	single, batches := p.iters(n), p.iters(3)
	total := single + batches*batchSize // licences bought, exchanged in turn

	// payment: blinded requests and coins are prepared untimed.
	reqs := make([]*payment.CoinRequest, total*price)
	for i := range reqs {
		if reqs[i], err = payment.NewCoinRequest(bank.CoinPub(), rand.Reader); !p.must(err) {
			return
		}
	}
	coins := make([]*payment.Coin, len(reqs))
	withdraw := func(i int) error {
		sig, err := bank.Withdraw("user", reqs[i].Blinded)
		if err != nil {
			return err
		}
		coins[i], err = reqs[i].Finish(bank.CoinPub(), sig)
		return err
	}
	p.each("payment.withdraw_us", n, withdraw)
	for i := p.iters(n); i < len(reqs); i++ {
		p.must(withdraw(i))
	}
	spare, err := bank.WithdrawCoins("user", p.iters(n))
	if !p.must(err) {
		return
	}
	p.each("payment.deposit_us", n, func(i int) error { return bank.Deposit("provider", spare[i]) })

	// provider.register: pseudonym i, nonce and proof are prepared untimed.
	type pseud struct{ sign, enc []byte }
	pseuds := make([]pseud, single)
	nonces := make([]string, single)
	proofs := make([]*schnorr.Proof, single)
	for i := range pseuds {
		ps, err := card.Pseudonym(uint32(i))
		if !p.must(err) {
			return
		}
		pseuds[i] = pseud{ps.SignPublic(g), ps.EncPublic(g)}
		if nonces[i], err = prov.Challenge(ctx); !p.must(err) {
			return
		}
		if proofs[i], err = card.Prove(uint32(i), provider.RegisterContext(nonces[i])); !p.must(err) {
			return
		}
	}
	p.each("provider.register_us", n, func(i int) error {
		return prov.Register(ctx, pseuds[i].sign, pseuds[i].enc, proofs[i], nonces[i])
	})
	if p.err != nil {
		return
	}

	// Every licence is bought and held by pseudonym 0.
	purchase := func(i int) provider.PurchaseRequest {
		return provider.PurchaseRequest{
			ContentID: contentID, SignPub: pseuds[0].sign, EncPub: pseuds[0].enc,
			Coins: coins[i*price : (i+1)*price],
		}
	}
	lics := make([]*license.Personalized, total)
	p.each("provider.purchase_us", n, func(i int) (err error) {
		lics[i], err = prov.Purchase(ctx, purchase(i))
		return err
	})
	p.perItem("provider.purchase_batch16_us_per_item", 3, func(b int) error {
		first := single + b*batchSize
		batch := make([]provider.PurchaseRequest, batchSize)
		for i := range batch {
			batch[i] = purchase(first + i)
		}
		for i, res := range prov.IssueBatch(ctx, batch) {
			if res.Err != nil {
				return res.Err
			}
			lics[first+i] = res.License
		}
		return nil
	})
	if p.err != nil {
		return
	}

	// Exchange: blinded serial, nonce and ownership proof per licence.
	denomPub, denomID, err := prov.DenomPublic(contentID)
	if !p.must(err) {
		return
	}
	blinds := make([]blinded, total)
	items := make([]provider.ExchangeItem, total)
	for i, lic := range lics {
		serial, err := license.NewSerial()
		if !p.must(err) {
			return
		}
		blob, st, err := rsablind.Blind(denomPub, license.AnonymousSigningBytes(serial, denomID), rand.Reader)
		if !p.must(err) {
			return
		}
		blinds[i] = blinded{serial: serial, blob: blob, state: st}
		nonce, err := prov.Challenge(ctx)
		if !p.must(err) {
			return
		}
		proof, err := card.Prove(0, provider.ExchangeContext(nonce, lic.Serial))
		if !p.must(err) {
			return
		}
		items[i] = provider.ExchangeItem{License: lic, Proof: proof, Nonce: nonce, Blinded: blob}
	}
	sigs := make([][]byte, single)
	p.each("provider.exchange_us", n, func(i int) (err error) {
		sigs[i], err = prov.Exchange(ctx, items[i].License, items[i].Proof, items[i].Nonce, items[i].Blinded)
		return err
	})
	p.perItem("provider.exchange_batch16_us_per_item", 3, func(b int) error {
		first := single + b*batchSize
		for _, res := range prov.ExchangeBatch(ctx, items[first:first+batchSize]) {
			if res.Err != nil {
				return res.Err
			}
		}
		return nil
	})
	if p.err != nil {
		return
	}

	anons := make([]*license.Anonymous, single)
	for i, sig := range sigs {
		clear, err := rsablind.Unblind(denomPub, blinds[i].state, sig)
		if !p.must(err) {
			return
		}
		anons[i] = &license.Anonymous{Serial: blinds[i].serial, Denom: denomID, Sig: clear}
	}
	p.each("provider.redeem_us", n, func(i int) error {
		_, err := prov.Redeem(ctx, anons[i], pseuds[0].sign, pseuds[0].enc)
		return err
	})
}
