package bench

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"sync"
	"time"

	"p2drm/internal/baseline"
	"p2drm/internal/core"
	"p2drm/internal/cryptox/dlkem"
	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/device"
	"p2drm/internal/domain"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/linkage"

	"p2drm/internal/provider"
	"p2drm/internal/rel"
	"p2drm/internal/revocation"
	"p2drm/internal/smartcard"
	"p2drm/internal/workload"
)

// fixedNow keeps experiment clocks deterministic.
var fixedNow = time.Date(2004, 9, 1, 12, 0, 0, 0, time.UTC)

func clock() time.Time { return fixedNow }

// labTemplate is the rights template used across experiments.
var labTemplate = rel.MustParse(`
grant play count 100;
grant transfer;
delegate allow;
`)

// newLabSystem builds a laboratory-parameter core system with content.
func newLabSystem(contents int, disableBlinding bool) (*core.System, error) {
	sys, err := core.NewSystem(core.Options{
		Group:           schnorr.Group768(),
		RSABits:         1024,
		DenomKeyBits:    1024,
		Clock:           clock,
		DisableBlinding: disableBlinding,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < contents; i++ {
		id := license.ContentID(fmt.Sprintf("content-%03d", i))
		if _, err := sys.Provider.AddContent(id, string(id), 1, labTemplate,
			[]byte("payload-"+string(id))); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// RunT1 measures the crypto primitives (Table 1).
func RunT1(quick bool) (*Table, error) {
	t := &Table{
		ID:     "T1",
		Title:  "Crypto primitive costs (mean per op)",
		Header: []string{"primitive", "params", "cost"},
		Notes:  "blind pipeline = blind + blind-sign + unblind + verify; the privacy premium over one plain signature",
	}
	type variant struct {
		label   string
		rsaBits int
		group   *schnorr.Group
		iters   int
	}
	variants := []variant{{"lab", 1024, schnorr.Group768(), 20}}
	if !quick {
		variants = append(variants, variant{"production", 2048, schnorr.Group2048(), 8})
	}
	for _, v := range variants {
		key, err := rsa.GenerateKey(rand.Reader, v.rsaBits)
		if err != nil {
			return nil, err
		}
		signer, err := rsablind.NewSigner(key)
		if err != nil {
			return nil, err
		}
		msg := []byte("benchmark message")

		d, err := timeOp(v.iters, func() error {
			_, err := signer.Sign(msg)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"RSA FDH sign", fmt.Sprintf("%s RSA-%d", v.label, v.rsaBits), fmtDur(d)})

		d, err = timeOp(v.iters, func() error {
			blinded, st, err := rsablind.Blind(signer.Public(), msg, rand.Reader)
			if err != nil {
				return err
			}
			bs, err := signer.SignBlinded(blinded)
			if err != nil {
				return err
			}
			_, err = rsablind.Unblind(signer.Public(), st, bs)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"blind pipeline", fmt.Sprintf("%s RSA-%d", v.label, v.rsaBits), fmtDur(d)})

		sk, err := schnorr.GenerateKey(v.group, rand.Reader)
		if err != nil {
			return nil, err
		}
		d, err = timeOp(v.iters, func() error {
			_, err := sk.Prove([]byte("ctx"), rand.Reader)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"Schnorr prove", fmt.Sprintf("%s %s", v.label, v.group.Name), fmtDur(d)})

		proof, _ := sk.Prove([]byte("ctx"), rand.Reader)
		d, err = timeOp(v.iters, func() error {
			return schnorr.VerifyProof(v.group, sk.Y, []byte("ctx"), proof)
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"Schnorr verify", fmt.Sprintf("%s %s", v.label, v.group.Name), fmtDur(d)})

		d, err = timeOp(v.iters, func() error {
			_, _, err := dlkem.Encap(v.group, sk.Y, rand.Reader)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"KEM encap", fmt.Sprintf("%s %s", v.label, v.group.Name), fmtDur(d)})

		ct, _, _ := dlkem.Encap(v.group, sk.Y, rand.Reader)
		d, err = timeOp(v.iters, func() error {
			_, err := dlkem.Decap(v.group, sk.X, ct)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"KEM decap", fmt.Sprintf("%s %s", v.label, v.group.Name), fmtDur(d)})
	}
	return t, nil
}

// RunT2 measures end-to-end protocol operation latency, P2DRM vs the
// identified baseline (Table 2).
func RunT2(quick bool) (*Table, error) {
	iters := 8
	if quick {
		iters = 4
	}
	t := &Table{
		ID:     "T2",
		Title:  "Protocol operation latency, P2DRM vs identified baseline",
		Header: []string{"operation", "system", "mean latency"},
		Notes:  "P2DRM purchase includes pseudonym registration + blind-cash withdrawal; baseline purchase is an account charge",
	}

	sys, err := newLabSystem(1, false)
	if err != nil {
		return nil, err
	}
	alice, err := sys.NewUser("alice", int64(iters)*40+100)
	if err != nil {
		return nil, err
	}
	bob, err := sys.NewUser("bob", 10)
	if err != nil {
		return nil, err
	}

	d, err := timeOp(iters, func() error {
		_, err := sys.Purchase(alice, "content-000")
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"purchase", "P2DRM", fmtDur(d)})

	// Transfer = exchange + redeem; measure the halves.
	lics := alice.Wallet()
	i := 0
	var anons []*license.Anonymous
	d, err = timeOp(min(iters, len(lics)), func() error {
		anon, err := sys.Exchange(alice, lics[i])
		i++
		if err == nil {
			anons = append(anons, anon)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"exchange (transfer half 1)", "P2DRM", fmtDur(d)})

	j := 0
	d, err = timeOp(len(anons), func() error {
		_, err := sys.Redeem(bob, anons[j])
		j++
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"redeem (transfer half 2)", "P2DRM", fmtDur(d)})

	// Playback.
	lic, err := sys.Purchase(alice, "content-000")
	if err != nil {
		return nil, err
	}
	dev, _, err := sys.NewDevice("bench-dev", "audio", "EU")
	if err != nil {
		return nil, err
	}
	var sink bytes.Buffer
	d, err = timeOp(iters, func() error {
		sink.Reset()
		return sys.Play(alice, dev, lic, &sink)
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"play (device pipeline)", "P2DRM", fmtDur(d)})

	// Baseline.
	bKey, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		return nil, err
	}
	bst, _ := kvstore.Open("")
	bp, err := baseline.New(bKey, bst, clock)
	if err != nil {
		return nil, err
	}
	if err := bp.AddContent("content-000", 1, labTemplate, []byte("payload")); err != nil {
		return nil, err
	}
	bAlice, err := bp.Register("alice", int64(iters)*10+100, 1024)
	if err != nil {
		return nil, err
	}
	if _, err := bp.Register("bob", 100, 1024); err != nil {
		return nil, err
	}

	var blics []*baseline.License
	d, err = timeOp(iters, func() error {
		l, err := bp.Purchase("alice", "content-000")
		if err == nil {
			blics = append(blics, l)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"purchase", "baseline", fmtDur(d)})

	k := 0
	d, err = timeOp(len(blics)-1, func() error {
		_, err := bp.Transfer("alice", blics[k].Serial, "bob")
		k++
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"transfer (identified)", "baseline", fmtDur(d)})

	last := blics[len(blics)-1]
	d, err = timeOp(iters, func() error {
		_, err := bp.Play(bAlice, last, fixedNow, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"play", "baseline", fmtDur(d)})
	return t, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// RunT3 measures provider throughput under concurrent purchase load
// (Table 3).
func RunT3(quick bool) (*Table, error) {
	perWorker := 6
	if quick {
		perWorker = 3
	}
	t := &Table{
		ID:     "T3",
		Title:  "Provider purchase throughput vs concurrent clients",
		Header: []string{"clients", "ops", "wall time", "licenses/sec"},
		Notes:  "each client is a distinct user with fresh pseudonyms; provider state behind one WAL store",
	}
	for _, workers := range []int{1, 2, 4, 8} {
		sys, err := newLabSystem(1, false)
		if err != nil {
			return nil, err
		}
		users := make([]*core.User, workers)
		for i := range users {
			u, err := sys.NewUser(fmt.Sprintf("u%d", i), int64(perWorker)*4+10)
			if err != nil {
				return nil, err
			}
			users[i] = u
		}
		start := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for _, u := range users {
			wg.Add(1)
			go func(u *core.User) {
				defer wg.Done()
				for n := 0; n < perWorker; n++ {
					if _, err := sys.Purchase(u, "content-000"); err != nil {
						errCh <- err
						return
					}
				}
			}(u)
		}
		wg.Wait()
		close(errCh)
		if err := <-errCh; err != nil {
			return nil, err
		}
		wall := time.Since(start)
		ops := workers * perWorker
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%d", ops),
			fmtDur(wall),
			fmt.Sprintf("%.1f", float64(ops)/wall.Seconds()),
		})
	}
	return t, nil
}

// RunT4 measures revocation-list scaling (Table 4 / Figure 4 series).
func RunT4(quick bool) (*Table, error) {
	sizes := []int{1_000, 10_000, 100_000}
	if !quick {
		sizes = append(sizes, 1_000_000)
	}
	t := &Table{
		ID:     "T4",
		Title:  "Revocation-list scaling: membership checks and audit proofs",
		Header: []string{"list size", "bloom+store hit", "miss (bloom only)", "merkle prove+verify", "snapshot build"},
		Notes:  "miss is the common case at playback; bloom answers it without touching the store",
	}
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		return nil, err
	}
	signer, err := rsablind.NewSigner(key)
	if err != nil {
		return nil, err
	}
	for _, size := range sizes {
		st, err := kvstore.Open("")
		if err != nil {
			return nil, err
		}
		list, err := revocation.Open(st, uint64(size))
		if err != nil {
			return nil, err
		}
		serials := make([]license.Serial, size)
		for i := range serials {
			s, err := license.NewSerial()
			if err != nil {
				return nil, err
			}
			serials[i] = s
		}
		if err := list.AddBatch(serials); err != nil {
			return nil, err
		}

		probeHit := serials[size/2]
		dHit, err := timeOp(2000, func() error {
			if !list.Contains(probeHit) {
				return fmt.Errorf("false negative")
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		missProbe, _ := license.NewSerial()
		dMiss, err := timeOp(2000, func() error {
			list.Contains(missProbe)
			return nil
		})
		if err != nil {
			return nil, err
		}
		snapStart := time.Now()
		snap, tree, err := list.Snapshot(signer, fixedNow)
		if err != nil {
			return nil, err
		}
		snapDur := time.Since(snapStart)
		dProof, err := timeOp(200, func() error {
			proof, err := revocation.ProveRevoked(tree, probeHit)
			if err != nil {
				return err
			}
			return revocation.VerifyRevoked(snap, probeHit, proof)
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", size),
			fmtDur(dHit), fmtDur(dMiss), fmtDur(dProof), fmtDur(snapDur),
		})
	}
	return t, nil
}

// RunT5 measures protocol latency under constrained smartcards (Table 5).
func RunT5(quick bool) (*Table, error) {
	iters := 4
	delays := []time.Duration{0, time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
	t := &Table{
		ID:     "T5",
		Title:  "Playback latency vs smartcard op delay (per modexp)",
		Header: []string{"card delay/modexp", "play latency", "card modexps/play"},
		Notes:  "models 2004-era card silicon; the proof + unwrap exponentiations dominate as the card slows",
	}
	for _, delay := range delays {
		sys, err := newLabSystem(1, false)
		if err != nil {
			return nil, err
		}
		u, err := sys.NewUser("alice", 50)
		if err != nil {
			return nil, err
		}
		lic, err := sys.Purchase(u, "content-000")
		if err != nil {
			return nil, err
		}
		dev, _, err := sys.NewDevice("dev", "audio", "EU")
		if err != nil {
			return nil, err
		}
		u.Card.SetOpDelay(delay)
		before := u.Card.Stats().ModExps
		var sink bytes.Buffer
		d, err := timeOp(iters, func() error {
			sink.Reset()
			return sys.Play(u, dev, lic, &sink)
		})
		if err != nil {
			return nil, err
		}
		expsPerPlay := (u.Card.Stats().ModExps - before) / int64(iters)
		t.Rows = append(t.Rows, []string{
			fmtDur(delay), fmtDur(d), fmt.Sprintf("%d", expsPerPlay),
		})
	}
	return t, nil
}

// RunF1 measures linkage-attack success vs pseudonym reuse (Figure 1).
func RunF1(quick bool) (*Table, error) {
	purchases := 48
	users := 6
	if quick {
		purchases = 24
		users = 4
	}
	t := &Table{
		ID:     "F1",
		Title:  "Linkage-attack recall vs pseudonym reuse (provider journal)",
		Header: []string{"purchases/pseudonym", "recall", "precision", "anonymity entropy (bits)"},
		Notes:  "baseline row: identified DRM where every event names the account; recall is 1 by construction",
	}
	for _, reuse := range []int{1, 2, 4, 8, 16} {
		sys, err := newLabSystem(2, false)
		if err != nil {
			return nil, err
		}
		cfg := workload.Config{
			Users: users, Contents: 2, PriceCredits: 1,
			Purchases: purchases, TransferFraction: 0.5,
			PurchasesPerPseudonym: reuse, Seed: 99,
			DeferRedemptions: true,
		}
		res, err := workload.Run(sys, cfg)
		if err != nil {
			return nil, err
		}
		c := linkage.Attack(res.Events, sys.Provider.DenomPublic)
		m := linkage.Evaluate(res.Events, c, res.Truth)
		entropy := linkage.MeanEntropy(linkage.AnonymitySetSizes(res.Events))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", reuse),
			fmt.Sprintf("%.3f", m.Recall),
			fmt.Sprintf("%.3f", m.Precision),
			fmt.Sprintf("%.2f", entropy),
		})
	}
	t.Rows = append(t.Rows, []string{"identified baseline", "1.000", "1.000", "0.00"})
	return t, nil
}

// RunF2 measures license size overhead vs rights complexity (Figure 2).
func RunF2(quick bool) (*Table, error) {
	t := &Table{
		ID:     "F2",
		Title:  "License wire size vs number of rights clauses",
		Header: []string{"clauses", "personalized (B)", "anonymous (B)", "star (B)", "baseline (B)"},
		Notes:  "anonymous licenses are constant-size bearer tokens; personalized size grows with the rights text",
	}
	g := schnorr.Group768()
	card, err := smartcard.NewRandom(g)
	if err != nil {
		return nil, err
	}
	holder, err := card.Pseudonym(0)
	if err != nil {
		return nil, err
	}
	delegate, err := card.Pseudonym(1)
	if err != nil {
		return nil, err
	}
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		return nil, err
	}
	signer, err := rsablind.NewSigner(key)
	if err != nil {
		return nil, err
	}
	contentKey := make([]byte, 32)
	rand.Read(contentKey)

	for _, clauses := range []int{1, 2, 4, 8, 16, 32} {
		b := rel.NewBuilder().Grant(rel.ActPlay).AllowDelegation()
		for i := 1; i < clauses; i++ {
			b.GrantCount(rel.Action(fmt.Sprintf("custom-action-%02d", i)), int64(i+1))
		}
		rights, err := b.Build()
		if err != nil {
			return nil, err
		}
		serial, _ := license.NewSerial()
		kw, err := license.WrapKey(g, holder.EncY(), contentKey, license.WrapLabelPersonalized(serial, "c"))
		if err != nil {
			return nil, err
		}
		lic := &license.Personalized{
			Serial: serial, ContentID: "c",
			HolderSign: holder.SignPublic(g), HolderEnc: holder.EncPublic(g),
			Rights: rights, KeyWrap: kw, IssuedAt: fixedNow,
		}
		if err := license.Sign(signer, lic); err != nil {
			return nil, err
		}

		anonSerial, _ := license.NewSerial()
		denom := license.Denom("c", rights)
		asig, err := signer.Sign(license.AnonymousSigningBytes(anonSerial, denom))
		if err != nil {
			return nil, err
		}
		anon := &license.Anonymous{Serial: anonSerial, Denom: denom, Sig: asig}

		restriction := rel.NewBuilder().GrantCount(rel.ActPlay, 1).MustBuild()
		star, err := card.IssueStarLicense(0, lic, restriction,
			delegate.SignPublic(g), delegate.EncPublic(g), fixedNow)
		if err != nil {
			return nil, err
		}

		bl := &baseline.License{
			Serial: serial, ContentID: "c", UserID: "alice@example.com",
			Rights: rights, WrappedKey: make([]byte, 128), IssuedAt: fixedNow,
		}
		bl.Sig, _ = signer.Sign(bl.SigningBytes())
		baselineSize := len(bl.SigningBytes()) + len(bl.Sig)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", clauses),
			fmt.Sprintf("%d", len(lic.Marshal())),
			fmt.Sprintf("%d", len(anon.Marshal())),
			fmt.Sprintf("%d", len(star.Marshal())),
			fmt.Sprintf("%d", baselineSize),
		})
	}
	return t, nil
}

// RunF3 measures authorized-domain operation scaling (Figure 3).
func RunF3(quick bool) (*Table, error) {
	sizes := []int{2, 4, 8, 16, 32}
	if !quick {
		sizes = append(sizes, 64)
	}
	t := &Table{
		ID:     "F3",
		Title:  "Authorized-domain operations vs domain size",
		Header: []string{"members", "join", "member wrap", "audit verify"},
		Notes:  "join cost is dominated by the Pedersen commitment update; wrap by two KEM operations",
	}
	g := schnorr.Group768()
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		return nil, err
	}
	signer, err := rsablind.NewSigner(key)
	if err != nil {
		return nil, err
	}
	for _, size := range sizes {
		card, err := smartcard.NewRandom(g)
		if err != nil {
			return nil, err
		}
		mgr, err := domain.NewManager("home", g, signer.Public(), card, 0, size+1)
		if err != nil {
			return nil, err
		}
		// Pre-join size-1 members; measure the size-th join.
		var lastCert *device.Certificate
		for i := 0; i < size; i++ {
			devKey, err := schnorr.GenerateKey(g, rand.Reader)
			if err != nil {
				return nil, err
			}
			cert, err := device.Certify(signer, g, fmt.Sprintf("dev-%d", i), "audio", devKey.Y)
			if err != nil {
				return nil, err
			}
			if i < size-1 {
				if _, err := mgr.Join(cert, fixedNow); err != nil {
					return nil, err
				}
			} else {
				lastCert = cert
			}
		}
		dJoin, err := timeOp(1, func() error {
			_, err := mgr.Join(lastCert, fixedNow)
			return err
		})
		if err != nil {
			return nil, err
		}

		// Domain license for the DM pseudonym.
		dm, _ := card.Pseudonym(0)
		contentKey := make([]byte, 32)
		rand.Read(contentKey)
		serial, _ := license.NewSerial()
		kw, err := license.WrapKey(g, dm.EncY(), contentKey, license.WrapLabelPersonalized(serial, "m"))
		if err != nil {
			return nil, err
		}
		lic := &license.Personalized{
			Serial: serial, ContentID: "m",
			HolderSign: dm.SignPublic(g), HolderEnc: dm.EncPublic(g),
			Rights: rel.MustParse("grant play; require domain;"), KeyWrap: kw, IssuedAt: fixedNow,
		}
		if err := license.Sign(signer, lic); err != nil {
			return nil, err
		}

		dWrap, err := timeOp(4, func() error {
			_, err := mgr.MemberWrap(lic, "dev-0")
			return err
		})
		if err != nil {
			return nil, err
		}

		commitment := mgr.SizeCommitment()
		audit := mgr.Audit()
		dAudit, err := timeOp(4, func() error {
			return domain.VerifyAudit(g, commitment, audit, size+1)
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", size), fmtDur(dJoin), fmtDur(dWrap), fmtDur(dAudit),
		})
	}
	return t, nil
}

// RunA1 is the blinding ablation (Table A1): privacy and cost with the
// blind signature replaced by a clear-serial signature.
func RunA1(quick bool) (*Table, error) {
	purchases := 24
	if quick {
		purchases = 12
	}
	t := &Table{
		ID:     "A1",
		Title:  "Ablation: blind vs clear-serial anonymous licenses",
		Header: []string{"mode", "transfer-pair recall", "overall recall", "mean exchange latency"},
		Notes:  "without blinding the provider links every exchange to its redemption by hashing; the crypto saved is one blind/unblind pair",
	}
	for _, disable := range []bool{false, true} {
		sys, err := newLabSystem(2, disable)
		if err != nil {
			return nil, err
		}
		cfg := workload.Config{
			Users: 4, Contents: 2, PriceCredits: 1,
			Purchases: purchases, TransferFraction: 0.5,
			PurchasesPerPseudonym: 1, Seed: 7,
		}
		res, err := workload.Run(sys, cfg)
		if err != nil {
			return nil, err
		}
		c := linkage.Attack(res.Events, sys.Provider.DenomPublic)
		m := linkage.Evaluate(res.Events, c, res.Truth)

		// Transfer-pair recall: fraction of exchange→redeem pairs linked.
		var exchanges, linked int
		var redeems []provider.Event
		for _, e := range res.Events {
			if e.Type == provider.EvRedeem {
				redeems = append(redeems, e)
			}
		}
		for _, e := range res.Events {
			if e.Type != provider.EvExchange {
				continue
			}
			exchanges++
			for _, r := range redeems {
				if c.SameCluster(e.Seq, r.Seq) {
					linked++
					break
				}
			}
		}
		pairRecall := 0.0
		if exchanges > 0 {
			pairRecall = float64(linked) / float64(exchanges)
		}

		// Exchange latency in this mode.
		u, err := sys.NewUser("probe", 20)
		if err != nil {
			return nil, err
		}
		lic, err := sys.Purchase(u, "content-000")
		if err != nil {
			return nil, err
		}
		var once sync.Once
		d, err := timeOp(1, func() error {
			var err error
			once.Do(func() { _, err = sys.Exchange(u, lic) })
			return err
		})
		if err != nil {
			return nil, err
		}

		mode := "blinded (P2DRM)"
		if disable {
			mode = "clear serial (ablation)"
		}
		t.Rows = append(t.Rows, []string{
			mode,
			fmt.Sprintf("%.3f", pairRecall),
			fmt.Sprintf("%.3f", m.Recall),
			fmtDur(d),
		})
	}
	return t, nil
}
