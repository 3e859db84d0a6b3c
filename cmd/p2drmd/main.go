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
// response is a snapd-style envelope, routes carry auth tiers, and
// unbounded actions (compaction, revocation rebuild, replica
// promotion/resync) run as background operations pollable at
// GET /v2/operations/{id}. Operations persist in a kvstore under
// <state>/ops, so work in flight at a crash is re-adopted — resumed or
// marked aborted — on the next start.
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
// The durable stores open in kvstore group-commit mode, so every
// acknowledged write — spent coins, redeemed serials, issued licenses —
// is fsynced before its HTTP response, with concurrent writers sharing
// each fsync. Stores with a state directory roll WAL segments at the
// kvstore's default size and compact them incrementally in the
// background. GET /v2/stats reports the resulting engine shape (segments,
// live keys, dead bytes, compactions) per store. None of this is a flag:
// the shard counts, the segment size and the sync mode are the constants
// every deployment and the repository benchmark have run with.
//
// # Replication
//
// A primary daemon automatically serves its provider and bank stores
// under replica/* (manifest, segment shipping, status). A second
// daemon started with
//
//	p2drmd -addr :8475 -state /var/lib/p2drm-replica -replica-of http://primary:8474
//
// runs as a READ REPLICA instead: no keys are generated, no provider or
// bank is mounted; the daemon tails both stores from the primary
// (snapshot bootstrap, then incremental WAL-segment shipping with
// reconnect/backoff, polling every 500 ms when idle) and serves
// read-only traffic while rejecting writes with 403. POST
// /v2/replica/promote (async) stops replication and opens the local
// stores for writes; POST /v2/replica/resync forces a fresh snapshot
// bootstrap (see internal/replica for the protocol and failover
// semantics).
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
	"syscall"
	"time"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/httpapi"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/ops"
	"p2drm/internal/payment"
	"p2drm/internal/provider"
	"p2drm/internal/rel"
	"p2drm/internal/replica"
)

// opsGCEvery / opsGCRetain pace the background reaping of terminal
// operations: poll-once-a-minute granularity, an hour for clients to
// collect results.
const (
	opsGCEvery  = time.Minute
	opsGCRetain = time.Hour
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

// walOpts is how every durable store of the daemon opens: group commit,
// so an acknowledged write is fsynced before its response (an operation
// record, a spent coin or a redeemed serial that vanishes in a crash
// defeats its store's purpose), with the kvstore's default index shards
// and segment size.
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
	fs.StringVar(&c.primaryToken, "primary-token", "", "bearer token presented to the primary daemon (replica mode, when the primary has auth configured)")
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
	// The fixed-base table for the group generator: every proof
	// verification and key wrap exponentiates it.
	group.Precompute()
	slog.Info("crypto acceleration", "precompute", group.Precomputed())

	slog.Info("generating keys", "rsa_bits", fl.rsaBits, "group", group.Name)
	bankKey, err := rsa.GenerateKey(rand.Reader, fl.rsaBits)
	if err != nil {
		fatal("bank key", "err", err)
	}
	provKey, err := rsa.GenerateKey(rand.Reader, fl.rsaBits)
	if err != nil {
		fatal("provider key", "err", err)
	}

	bankDir, provDir, opsDir := "", "", ""
	if fl.stateDir != "" {
		bankDir = fl.stateDir + "/bank"
		provDir = fl.stateDir + "/provider"
		opsDir = fl.stateDir + "/ops"
	}
	spent, err := kvstore.OpenWith(bankDir, walOpts)
	if err != nil {
		fatal("bank store", "err", err)
	}
	bank, err := payment.NewBank(bankKey, spent)
	if err != nil {
		fatal("bank", "err", err)
	}
	if err := bank.CreateAccount("provider", 0); err != nil {
		fatal("provider account", "err", err)
	}
	store, err := kvstore.OpenWith(provDir, walOpts)
	if err != nil {
		fatal("provider store", "err", err)
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
	reg, opsStore := openOps(opsDir)

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
		for _, d := range demo {
			if _, err := prov.AddContent(d.id, d.title, d.price, template,
				[]byte("demo content payload for "+string(d.id))); err != nil {
				fatal("seed content", "content", d.id, "err", err)
			}
			slog.Info("listed demo content", "content", d.id, "price_credits", d.price)
		}
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
		WithStoreStats("bank", spent).
		WithReplicaSource("provider", replica.NewSource(store)).
		WithReplicaSource("bank", replica.NewSource(spent)).
		WithOps(reg).
		WithAuth(auth)
	// Feed the storage engines' timing hooks into the same registry
	// /v2/metrics renders: fsync/commit-wait/compaction per store.
	plane := handler.Obs()
	plane.SLO.SetLatencyTarget(fl.sloLatency)
	store.SetObserver(httpapi.StoreObserver(plane, "provider"))
	spent.SetObserver(httpapi.StoreObserver(plane, "bank"))
	if opsStore != nil {
		opsStore.SetObserver(httpapi.StoreObserver(plane, "ops"))
		// The ops store is wired outside WithStoreStats, so its WAL and
		// compaction health probes need explicit registration.
		httpapi.StoreHealth(plane, "ops", opsStore)
	}
	// Adopt operations a previous process left running (the registry is
	// durable under <state>/ops): idempotent kinds re-run, the rest are
	// marked aborted but stay pollable.
	if resumed, aborted := handler.ResumeOps(); resumed+aborted > 0 {
		slog.Info("adopted operations from previous run", "resumed", resumed, "aborted", aborted)
	}
	go opsGCLoop(ctx, reg)

	srv := &http.Server{Addr: fl.addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	adminSrv, err := serveAdminSocket(fl.adminSocket, handler)
	if err != nil {
		fatal("admin socket", "err", err)
	}
	// closeStores settles and closes the WALs; every serving-phase exit
	// path must run it. (The fatal calls above run before any protocol
	// state exists, so they may exit without it.)
	closeStores := func() {
		reg.Close() // settle in-flight operation persists first
		if err := store.Close(); err != nil {
			slog.Error("close provider store", "err", err)
		}
		if err := spent.Close(); err != nil {
			slog.Error("close bank store", "err", err)
		}
		if opsStore != nil {
			if err := opsStore.Close(); err != nil {
				slog.Error("close ops store", "err", err)
			}
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
		closeStores()
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
	closeStores()
}

// openOps builds the operations registry: kvstore-backed when the
// daemon has a state directory (so operations survive restarts),
// volatile otherwise.
func openOps(dir string) (*ops.Registry, *kvstore.Store) {
	if dir == "" {
		return ops.New(nil), nil
	}
	st, err := kvstore.OpenWith(dir, walOpts)
	if err != nil {
		fatal("ops store", "err", err)
	}
	return ops.New(st), st
}

// opsGCLoop reaps terminal operations older than opsGCRetain until ctx
// is done.
func opsGCLoop(ctx context.Context, reg *ops.Registry) {
	t := time.NewTicker(opsGCEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			res := reg.GC(opsGCRetain)
			if res.Reaped > 0 {
				slog.Info("reaped finished operations", "reaped", res.Reaped, "by_kind", res.ByKind)
			}
			if len(res.Errors) > 0 {
				slog.Warn("ops GC could not delete operations", "errors", res.Errors)
			}
		}
	}
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

// runReplica is follower mode: tail the primary's provider and bank
// stores (snapshot bootstrap + incremental segment shipping with
// reconnect/backoff) and serve the read-only replica HTTP surface. No
// keys are generated — a replica holds replicated state, not signing
// capability; POST /v2/replica/promote opens the stores for writes.
func runReplica(fl *flagValues, auth httpapi.Auth) {
	slog.Info("replica mode", "primary", fl.replicaOf, "poll", replicaPoll)
	client := httpapi.NewClient(fl.replicaOf, nil)
	// The replication reads are guest-tier, but releasing a pin lease is
	// user-tier on an auth-configured primary.
	client.Token = fl.primaryToken
	followers := make(map[string]*replica.Follower, 2)
	for _, name := range []string{"provider", "bank"} {
		dir := ""
		if fl.stateDir != "" {
			dir = fl.stateDir + "/replica-" + name
		}
		name := name
		f, err := replica.Open(replica.Options{
			Dir:          dir,
			Fetch:        httpapi.NewReplicaFetcher(client, name),
			KV:           walOpts,
			PollInterval: replicaPoll,
			// The replica package reports reconnects, backoff and
			// snapshot fallbacks through this hook; route them into the
			// leveled log with the store name attached.
			Logf: func(format string, args ...any) {
				slog.Info(fmt.Sprintf(format, args...), "store", name)
			},
		})
		if err != nil {
			fatal("open replica", "store", name, "err", err)
		}
		f.Start()
		followers[name] = f
	}
	opsDir := ""
	if fl.stateDir != "" {
		opsDir = fl.stateDir + "/replica-ops"
	}
	reg, opsStore := openOps(opsDir)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	handler := httpapi.NewReplicaServer(followers).WithOps(reg).WithAuth(auth)
	// Feed fetch/apply timings into the follower server's registry.
	plane := handler.Obs()
	plane.SLO.SetLatencyTarget(fl.sloLatency)
	for name, f := range followers {
		f.SetObserver(httpapi.FollowerObserver(plane, name))
	}
	if opsStore != nil {
		opsStore.SetObserver(httpapi.StoreObserver(plane, "ops"))
		httpapi.StoreHealth(plane, "ops", opsStore)
	}
	if resumed, aborted := handler.ResumeOps(); resumed+aborted > 0 {
		slog.Info("adopted operations from previous run", "resumed", resumed, "aborted", aborted)
	}
	go opsGCLoop(ctx, reg)

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
	closeFollowers := func() {
		reg.Close()
		for name, f := range followers {
			if err := f.Close(); err != nil {
				slog.Error("close replica", "store", name, "err", err)
			}
		}
		if opsStore != nil {
			if err := opsStore.Close(); err != nil {
				slog.Error("close ops store", "err", err)
			}
		}
	}
	select {
	case err := <-errc:
		slog.Error("serve", "err", err)
		closeFollowers()
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
	closeFollowers()
}
