// Command p2drmd runs the P2DRM content provider (plus a demo bank) as an
// HTTP daemon.
//
// Usage:
//
//	p2drmd -addr :8474 -state /var/lib/p2drm -rsa-bits 2048 -seed-demo \
//	       -bank-shards 16 -wal-group-commit \
//	       -kv-index-shards 16 -kv-segment-bytes 67108864 \
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
// -bank-shards sizes the bank's balance-shard count; -wal-group-commit
// (default on) opens the durable stores in kvstore group-commit mode, so
// every acknowledged write — spent coins, redeemed serials, issued
// licenses — is fsynced before its HTTP response, with concurrent writers
// sharing each fsync. Disabling it falls back to flush-on-write /
// fsync-on-close (faster for single-user demos, loses the tail on an OS
// crash).
//
// -kv-index-shards sizes the kvstore's lock-striped in-memory index
// (rounded up to a power of two) and -kv-segment-bytes caps one WAL
// segment file; stores with a state directory roll segments at that size
// and compact them incrementally in the background. GET /v2/stats
// reports the resulting engine shape (segments, live keys, dead bytes,
// compactions) per store.
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
// reconnect/backoff, -replica-poll tunes the idle poll) and serves
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

func main() {
	var (
		addr         = flag.String("addr", ":8474", "listen address")
		adminSocket  = flag.String("admin-socket", "", "also serve on this unix socket with SO_PEERCRED admin auth and /debug/pprof/")
		stateDir     = flag.String("state", "", "state directory (empty = in-memory)")
		rsaBits      = flag.Int("rsa-bits", 2048, "provider/bank RSA key size")
		lab          = flag.Bool("lab", false, "use laboratory parameters (768-bit group, 1024-bit RSA)")
		seedDemo     = flag.Bool("seed-demo", true, "seed demo catalog and bank account")
		userToken    = flag.String("user-token", "", "bearer token for the user tier (empty with -admin-token empty = open API)")
		adminToken   = flag.String("admin-token", "", "bearer token for the admin tier")
		bankShards   = flag.Int("bank-shards", payment.DefaultBankShards, "bank balance-shard count")
		groupWAL     = flag.Bool("wal-group-commit", true, "fsync durable stores via group commit (off = fsync only on close)")
		kvShards     = flag.Int("kv-index-shards", kvstore.DefaultIndexShards, "kvstore index lock-stripe count (rounded up to a power of two)")
		kvSegBytes   = flag.Int64("kv-segment-bytes", kvstore.DefaultSegmentBytes, "kvstore WAL segment size cap in bytes")
		replicaOf    = flag.String("replica-of", "", "run as a read replica of the primary daemon at this base URL")
		replicaPoll  = flag.Duration("replica-poll", 500*time.Millisecond, "replica idle tail poll interval")
		primaryToken = flag.String("primary-token", "", "bearer token presented to the primary daemon (replica mode, when the primary has auth configured)")
		cryptoPre    = flag.Bool("crypto-precompute", true, "build the fixed-base exponentiation table for the group generator")
		noncePool    = flag.Int("crypto-nonce-pool", 256, "Schnorr/KEM nonce pool capacity (0 disables pooling)")
		poolFillers  = flag.Int("crypto-pool-fillers", 1, "background filler goroutines per crypto pool")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		sloLatency   = flag.Duration("slo-latency", 250*time.Millisecond, "per-request latency SLO target feeding /v2/health and the p2drm_slo_* families")
	)
	flag.Parse()

	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr,
		&slog.HandlerOptions{Level: parseLogLevel(*logLevel)})))

	walOpts := kvstore.Options{
		Sync:         kvstore.SyncOnClose,
		IndexShards:  *kvShards,
		SegmentBytes: *kvSegBytes,
		// Reclaim dead segment bytes continuously; compaction never
		// blocks request-path writers.
		CompactEvery: 30 * time.Second,
	}
	if *groupWAL {
		walOpts.Sync = kvstore.SyncGroupCommit
	}
	auth := httpapi.Auth{UserToken: *userToken, AdminToken: *adminToken}

	if *replicaOf != "" {
		runReplica(*addr, *adminSocket, *stateDir, *replicaOf, *primaryToken, *replicaPoll, *sloLatency, walOpts, auth)
		return
	}
	slog.Info("starting",
		"bank_shards", *bankShards, "wal_group_commit", *groupWAL,
		"kv_index_shards", *kvShards, "kv_segment_bytes", *kvSegBytes,
		"kv_compact_every", walOpts.CompactEvery)

	group := schnorr.Group2048()
	bits := *rsaBits
	if *lab {
		group = schnorr.Group768()
		bits = 1024
	}
	if *cryptoPre {
		group.Precompute()
	}
	if *noncePool > 0 {
		fillers := *poolFillers
		if fillers < 1 {
			fillers = 1
		}
		group.EnableNoncePool(*noncePool, fillers)
	}
	slog.Info("crypto acceleration",
		"precompute", *cryptoPre, "nonce_pool", *noncePool, "fillers", *poolFillers)

	slog.Info("generating keys", "rsa_bits", bits, "group", group.Name)
	bankKey, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		fatal("bank key", "err", err)
	}
	provKey, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		fatal("provider key", "err", err)
	}

	bankDir, provDir, opsDir := "", "", ""
	if *stateDir != "" {
		bankDir = *stateDir + "/bank"
		provDir = *stateDir + "/provider"
		opsDir = *stateDir + "/ops"
	}
	spent, err := kvstore.OpenWith(bankDir, walOpts)
	if err != nil {
		fatal("bank store", "err", err)
	}
	bank, err := payment.NewBankSharded(bankKey, spent, *bankShards)
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
		DenomKeyBits: bits,
		Store:        store,
		Bank:         bank,
		BankAccount:  "provider",
		Clock:        time.Now,
	})
	if err != nil {
		fatal("provider", "err", err)
	}
	reg, opsStore := openOps(opsDir, walOpts)

	if *seedDemo {
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
	plane.SLO.SetLatencyTarget(*sloLatency)
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

	srv := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	adminSrv, err := serveAdminSocket(*adminSocket, handler)
	if err != nil {
		fatal("admin socket", "err", err)
	}
	// closeStores syncs the WALs; every serving-phase exit path must run
	// it — under -wal-group-commit=false the stores only fsync on Close,
	// and losing redeemed-serial or spent-coin records reopens
	// double-spend windows. (The fatal calls above run before any
	// protocol state exists, so they may exit without it.)
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
		slog.Info("listening", "addr", *addr)
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
// volatile otherwise. The ops store always group-commits — an
// operation record that vanishes on crash defeats the registry's
// purpose — but it is tiny and off the request hot path.
func openOps(dir string, walOpts kvstore.Options) (*ops.Registry, *kvstore.Store) {
	if dir == "" {
		return ops.New(nil), nil
	}
	opsOpts := walOpts
	opsOpts.Sync = kvstore.SyncGroupCommit
	st, err := kvstore.OpenWith(dir, opsOpts)
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
func runReplica(addr, adminSocket, stateDir, primaryURL, primaryToken string, poll, sloLatency time.Duration, walOpts kvstore.Options, auth httpapi.Auth) {
	slog.Info("replica mode", "primary", primaryURL, "poll", poll)
	client := httpapi.NewClient(primaryURL, nil)
	// The replication reads are guest-tier, but releasing a pin lease is
	// user-tier on an auth-configured primary.
	client.Token = primaryToken
	followers := make(map[string]*replica.Follower, 2)
	for _, name := range []string{"provider", "bank"} {
		dir := ""
		if stateDir != "" {
			dir = stateDir + "/replica-" + name
		}
		name := name
		f, err := replica.Open(replica.Options{
			Dir:          dir,
			Fetch:        httpapi.NewReplicaFetcher(client, name),
			KV:           walOpts,
			PollInterval: poll,
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
	if stateDir != "" {
		opsDir = stateDir + "/replica-ops"
	}
	reg, opsStore := openOps(opsDir, walOpts)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	handler := httpapi.NewReplicaServer(followers).WithOps(reg).WithAuth(auth)
	// Feed fetch/apply timings into the follower server's registry.
	plane := handler.Obs()
	plane.SLO.SetLatencyTarget(sloLatency)
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

	srv := &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	adminSrv, err := serveAdminSocket(adminSocket, handler)
	if err != nil {
		fatal("admin socket", "err", err)
	}
	errc := make(chan error, 1)
	go func() {
		slog.Info("replica listening", "addr", addr)
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
