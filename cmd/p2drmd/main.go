// Command p2drmd runs the P2DRM content provider (plus a demo bank) as an
// HTTP daemon.
//
// Usage:
//
//	p2drmd -addr :8474 -state /var/lib/p2drm -rsa-bits 2048 -seed-demo \
//	       -admin-socket /run/p2drmd.socket -log-level info
//
// With -seed-demo the catalog is populated with a few items and a funded
// demo bank account ("demo", 100 credits), so the p2drm CLI works out of
// the box.
//
// # API surface
//
// The daemon serves one API tree, /v2/ (see docs/rest.md): every
// response is a snapd-style envelope and routes carry auth tiers. Every
// action answers in its own request, the admin ones (compaction,
// revocation rebuild, replica promotion/resync) included; each is
// idempotent, so one cut off by a crash is sent again.
//
// -user-token and -admin-token configure bearer credentials for the
// auth tiers; with both empty the API is open (every caller is admin), which keeps demo setups
// working. -admin-socket additionally serves the same handler on a
// unix socket (created mode 0600) whose callers are authenticated by
// SO_PEERCRED (root and the daemon's own uid are admin), so local
// administration needs no token — the snapd model.
//
// # Observability
//
// GET /v2/metrics renders every engine and HTTP metric family in
// Prometheus text format (aggregate-only; see docs/observability.md),
// GET /v2/debug/traces (admin) returns the retained slow-request
// traces, and the admin socket additionally serves net/http/pprof
// under /debug/pprof/. -log-level tunes the leveled structured log on
// stderr.
//
// # Storage
//
// The daemon keeps one durable store, <state>/provider: the bank's
// spent coins and the provider's registrations, issued licences,
// redeemed serials and revocations, under disjoint key prefixes in one
// log. It opens in kvstore group-commit mode, so every acknowledged
// write is fsynced before its HTTP response, with concurrent writers
// sharing each fsync, and a purchase waits once: the log orders its
// spent marks before its licence. With a state directory the store rolls
// WAL segments at the kvstore's default size and compacts them
// incrementally in the background. GET /v2/stats reports the resulting
// engine shape (segments, live keys, dead bytes, compactions). None of
// this is a flag: the shard counts, the segment size and the sync mode
// are the constants every deployment and the repository benchmark have
// run with.
//
// # Replication
//
// A primary daemon automatically serves its store under replica/*
// (manifest, segment shipping and pin release to the admin tier, status
// to anyone). A second daemon started with
//
//	p2drmd -addr :8475 -state /var/lib/p2drm-replica -replica-of http://primary:8474
//
// runs as a READ REPLICA instead: no keys are generated, no provider or
// bank is mounted; the daemon tails the store from the primary into
// <state>/replica-provider (snapshot bootstrap, then incremental
// WAL-segment shipping with reconnect/backoff, polling every 500 ms when
// idle) and serves read-only traffic while rejecting writes with 403.
// One follower on one log means a promoted replica holds a prefix of the
// primary's history, so no licence it holds lacks the spent marks of the
// coins that paid for it. POST /v2/replica/promote stops replication and
// opens the local store for writes; POST /v2/replica/resync forces a
// fresh snapshot bootstrap (see internal/replica for the protocol and
// failover semantics).
package main

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/httpapi"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
	"p2drm/internal/replica"
)

// Connection bounds on every listener (public, replica, admin socket): a
// client that opens a connection and never finishes its request headers,
// or parks a keep-alive connection forever, is dropped instead of
// pinning a goroutine. Bodies are bounded by size in httpapi; there is
// no whole-request deadline because content and WAL-segment streams are
// legitimately long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// replicaPoll is the follower's idle tail poll, and most of what
// revocation.visible_ms measures: a revocation reaches a quiet replica
// up to this long after the primary acknowledged it. It is the interval
// the daemon has always run with, twice the replica package's default.
const replicaPoll = 500 * time.Millisecond

// walOpts is how the daemon's store (and a replica's) opens: group
// commit, so an acknowledged write is fsynced before its response (a
// spent coin or a redeemed serial that vanishes in a crash defeats the
// store's purpose), with the kvstore's default index shards and segment
// size.
var walOpts = kvstore.Options{
	Sync: kvstore.SyncGroupCommit,
	// Reclaim dead segment bytes continuously; compaction never
	// blocks request-path writers.
	CompactEvery: 30 * time.Second,
}

// labRSABits is the RSA key size -lab fixes, beside the 768-bit group.
const labRSABits = 1024

// fatal logs at error level and exits. Used only on startup paths,
// before any protocol state needs a clean close.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// bootStep is one independent piece of startup work and the fatal line
// its failure ends in: msg, then args and the error.
type bootStep struct {
	msg  string
	args []any
	run  func() error
}

// runBoot runs steps side by side and waits for every one of them. The
// first failed step in list order ends the process in its fatal line,
// the line it ended in when boot ran one step after another.
func runBoot(steps ...bootStep) {
	errs := make([]error, len(steps))
	var wg sync.WaitGroup
	for i, s := range steps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.run()
		}()
	}
	wg.Wait()
	for i, s := range steps {
		if errs[i] != nil {
			fatal(s.msg, append(s.args, "err", errs[i])...)
		}
	}
}

// parseLogLevel maps the -log-level flag onto slog levels; unknown
// values fall back to info.
func parseLogLevel(s string) slog.Level {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// flagValues holds the parsed value of every flag the daemon has.
type flagValues struct {
	addr         string
	adminSocket  string
	stateDir     string
	rsaBits      int
	lab          bool
	seedDemo     bool
	userToken    string
	adminToken   string
	replicaOf    string
	primaryToken string
	logLevel     string
	sloLatency   time.Duration
}

// parseFlags defines the daemon's flags on fs, parses args and refuses
// combinations in which one flag would silently override another.
func parseFlags(fs *flag.FlagSet, args []string) (*flagValues, error) {
	c := new(flagValues)
	fs.StringVar(&c.addr, "addr", ":8474", "listen address")
	fs.StringVar(&c.adminSocket, "admin-socket", "", "also serve on this unix socket with SO_PEERCRED admin auth and /debug/pprof/")
	fs.StringVar(&c.stateDir, "state", "", "state directory (empty = in-memory)")
	fs.IntVar(&c.rsaBits, "rsa-bits", 2048, "provider/bank RSA key size (not with -lab, which fixes it)")
	fs.BoolVar(&c.lab, "lab", false, "use laboratory parameters (768-bit group, 1024-bit RSA)")
	fs.BoolVar(&c.seedDemo, "seed-demo", true, "seed demo catalog and bank account")
	fs.StringVar(&c.userToken, "user-token", "", "bearer token for the user tier (empty with -admin-token empty = open API)")
	fs.StringVar(&c.adminToken, "admin-token", "", "bearer token for the admin tier")
	fs.StringVar(&c.replicaOf, "replica-of", "", "run as a read replica of the primary daemon at this base URL")
	fs.StringVar(&c.primaryToken, "primary-token", "", "the primary daemon's admin token, presented to read its log (replica mode, when the primary has auth configured)")
	fs.StringVar(&c.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")
	fs.DurationVar(&c.sloLatency, "slo-latency", 250*time.Millisecond, "per-request latency SLO target feeding /v2/health and the p2drm_slo_* families")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if c.lab {
		var sized bool
		fs.Visit(func(f *flag.Flag) { sized = sized || f.Name == "rsa-bits" })
		if sized {
			return nil, fmt.Errorf("-lab fixes the RSA key size at %d bits: drop -rsa-bits or -lab", labRSABits)
		}
		c.rsaBits = labRSABits
	}
	return c, nil
}

func main() {
	fl, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2drmd:", err)
		os.Exit(2)
	}

	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr,
		&slog.HandlerOptions{Level: parseLogLevel(fl.logLevel)})))

	auth := httpapi.Auth{UserToken: fl.userToken, AdminToken: fl.adminToken}

	if fl.replicaOf != "" {
		runReplica(fl, auth)
		return
	}
	slog.Info("starting",
		"bank_shards", payment.DefaultBankShards, "wal_group_commit", true,
		"kv_index_shards", kvstore.DefaultIndexShards, "kv_segment_bytes", kvstore.DefaultSegmentBytes,
		"kv_compact_every", walOpts.CompactEvery)

	group := schnorr.Group2048()
	if fl.lab {
		group = schnorr.Group768()
	}
	storeDir := ""
	if fl.stateDir != "" {
		storeDir = fl.stateDir + "/provider"
	}

	// Boot order. First, side by side, the work that needs nothing but the
	// flags: the bank and provider RSA keys, the generator's fixed-base
	// table (every proof verification and key wrap exponentiates it), and
	// the replay of the WAL. Boot waits for all four before it uses any.
	// Then the bank and the provider are assembled on them, sharing the
	// store — the provider's revocation list reads its serials once, into
	// a filter at its final size — and last the demo items, whose
	// denomination keys are generated side by side too.
	slog.Info("generating keys", "rsa_bits", fl.rsaBits, "group", group.Name)
	var (
		bankKey, provKey *rsa.PrivateKey
		store            *kvstore.Store
	)
	runBoot(
		bootStep{"bank key", nil, func() (err error) {
			bankKey, err = rsa.GenerateKey(rand.Reader, fl.rsaBits)
			return err
		}},
		bootStep{"provider key", nil, func() (err error) {
			provKey, err = rsa.GenerateKey(rand.Reader, fl.rsaBits)
			return err
		}},
		bootStep{"precompute", nil, func() error { group.Precompute(); return nil }},
		bootStep{"provider store", nil, func() (err error) {
			store, err = kvstore.OpenWith(storeDir, walOpts)
			return err
		}},
	)
	slog.Info("crypto acceleration", "precompute", group.Precomputed())

	bank, err := payment.NewBank(bankKey, store)
	if err != nil {
		fatal("bank", "err", err)
	}
	if err := bank.CreateAccount("provider", 0); err != nil {
		fatal("provider account", "err", err)
	}
	prov, err := provider.New(provider.Config{
		Group:        group,
		SignerKey:    provKey,
		DenomKeyBits: fl.rsaBits,
		Store:        store,
		Bank:         bank,
		BankAccount:  "provider",
		Clock:        time.Now,
	})
	if err != nil {
		fatal("provider", "err", err)
	}

	if fl.seedDemo {
		template := rel.MustParse(`
grant play count 25;
grant transfer;
delegate allow;
valid until "2030-01-01T00:00:00Z";
`)
		demo := []struct {
			id    license.ContentID
			title string
			price int64
		}{
			{"song-blue", "Blue Monday (demo)", 2},
			{"song-red", "Red Rain (demo)", 3},
			{"film-grey", "Grey Matter (demo)", 5},
		}
		steps := make([]bootStep, len(demo))
		for i, d := range demo {
			steps[i] = bootStep{"seed content", []any{"content", d.id}, func() error {
				if _, err := prov.AddContent(d.id, d.title, d.price, template,
					[]byte("demo content payload for "+string(d.id))); err != nil {
					return err
				}
				slog.Info("listed demo content", "content", d.id, "price_credits", d.price)
				return nil
			}}
		}
		runBoot(steps...)
		if err := bank.CreateAccount("demo", 100); err != nil {
			fatal("demo account", "err", err)
		}
		slog.Info("funded demo bank account", "funds", 100)
	}

	// SIGINT/SIGTERM trigger a graceful drain: Shutdown stops the
	// listener and gives in-flight requests the timeout below to finish.
	// Request contexts are deliberately NOT tied to the signal — they
	// must survive into the drain window; they still cancel on client
	// disconnect.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	handler := httpapi.NewServer(prov).WithBank(bank).
		WithStoreStats("provider", store).
		WithReplicaSource("provider", replica.NewSource(store)).
		WithAuth(auth)
	// Feed the storage engine's timing hooks into the same registry
	// /v2/metrics renders: fsync/commit-wait/compaction.
	plane := handler.Obs()
	plane.SLO.SetLatencyTarget(fl.sloLatency)
	store.SetObserver(httpapi.StoreObserver(plane, "provider"))

	srv := &http.Server{Addr: fl.addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	adminSrv, err := serveAdminSocket(fl.adminSocket, handler)
	if err != nil {
		fatal("admin socket", "err", err)
	}
	// closeStore settles and closes the WAL; every serving-phase exit
	// path must run it. (The fatal calls above run before any protocol
	// state exists, so they may exit without it.)
	closeStore := func() {
		if err := store.Close(); err != nil {
			slog.Error("close provider store", "err", err)
		}
	}
	errc := make(chan error, 1)
	go func() {
		slog.Info("listening", "addr", fl.addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		slog.Error("serve", "err", err)
		closeStore()
		os.Exit(1)
	case <-ctx.Done():
	}
	slog.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// DeadlineExceeded means in-flight requests were cut off; they
		// will fail their store writes with ErrClosed below. Say so.
		slog.Error("shutdown", "err", err)
	}
	if adminSrv != nil {
		if err := adminSrv.Shutdown(shutdownCtx); err != nil {
			slog.Error("admin shutdown", "err", err)
		}
	}
	closeStore()
}

// serveAdminSocket serves handler on a unix socket whose callers are
// authenticated by SO_PEERCRED (httpapi.PeerCredConnContext): root and
// the daemon's own uid reach the admin tier with no token. The socket
// additionally mounts net/http/pprof under /debug/pprof/ — profiling
// stays off the TCP listener entirely, gated by filesystem access to
// the mode-0600 socket. Returns nil when path is empty.
func serveAdminSocket(path string, handler http.Handler) (*http.Server, error) {
	if path == "" {
		return nil, nil
	}
	// A previous unclean exit leaves the socket file behind; remove it
	// so Listen can rebind.
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	l, err := net.Listen("unix", path)
	if err != nil {
		return nil, err
	}
	// net.Listen creates the socket world-connectable; since any peer on
	// it gets at least the user tier via SO_PEERCRED, restrict it to the
	// daemon's own uid. Operators who want a looser group socket can
	// widen it after start.
	if err := os.Chmod(path, 0o600); err != nil {
		l.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", handler)
	srv := &http.Server{Handler: mux, ConnContext: httpapi.PeerCredConnContext, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go func() {
		slog.Info("admin socket listening", "path", path)
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			slog.Error("admin socket", "err", err)
		}
	}()
	return srv, nil
}

// runReplica is follower mode: tail the primary's store (snapshot
// bootstrap + incremental segment shipping with reconnect/backoff) and
// serve the read-only replica HTTP surface. No keys are generated — a
// replica holds replicated state, not signing capability; POST
// /v2/replica/promote opens the store for writes.
func runReplica(fl *flagValues, auth httpapi.Auth) {
	slog.Info("replica mode", "primary", fl.replicaOf, "poll", replicaPoll)
	client := httpapi.NewClient(fl.replicaOf, nil)
	// Reading the primary's log is admin-tier on an auth-configured
	// primary: the log holds every record.
	client.Token = fl.primaryToken
	const name = "provider"
	dir := ""
	if fl.stateDir != "" {
		dir = fl.stateDir + "/replica-" + name
	}
	f, err := replica.Open(replica.Options{
		Dir:          dir,
		Fetch:        httpapi.NewReplicaFetcher(client, name),
		KV:           walOpts,
		PollInterval: replicaPoll,
		// The replica package reports reconnects, backoff and snapshot
		// fallbacks through this hook; route them into the leveled log
		// with the store name attached.
		Logf: func(format string, args ...any) {
			slog.Info(fmt.Sprintf(format, args...), "store", name)
		},
	})
	if err != nil {
		fatal("open replica", "store", name, "err", err)
	}
	f.Start()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	handler := httpapi.NewReplicaServer(map[string]*replica.Follower{name: f}).WithAuth(auth)
	// Feed fetch/apply timings into the follower server's registry.
	plane := handler.Obs()
	plane.SLO.SetLatencyTarget(fl.sloLatency)
	f.SetObserver(httpapi.FollowerObserver(plane, name))

	srv := &http.Server{Addr: fl.addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	adminSrv, err := serveAdminSocket(fl.adminSocket, handler)
	if err != nil {
		fatal("admin socket", "err", err)
	}
	errc := make(chan error, 1)
	go func() {
		slog.Info("replica listening", "addr", fl.addr)
		errc <- srv.ListenAndServe()
	}()
	closeFollower := func() {
		if err := f.Close(); err != nil {
			slog.Error("close replica", "store", name, "err", err)
		}
	}
	select {
	case err := <-errc:
		slog.Error("serve", "err", err)
		closeFollower()
		os.Exit(1)
	case <-ctx.Done():
	}
	slog.Info("replica shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		slog.Error("shutdown", "err", err)
	}
	if adminSrv != nil {
		if err := adminSrv.Shutdown(shutdownCtx); err != nil {
			slog.Error("admin shutdown", "err", err)
		}
	}
	closeFollower()
}
