package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"p2drm/internal/fuse"
	"p2drm/internal/httpapi"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
	"p2drm/internal/obs"
	"p2drm/internal/revocation"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("p2drmd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// TestFlagSurface pins the daemon's flags: the eleven names and their
// defaults, that a retired tuning flag is refused rather than ignored,
// and that -lab cannot silently discard an explicit -rsa-bits.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"addr": ":8474", "admin-socket": "", "state": "", "rsa-bits": "2048",
		"lab": "false", "seed-demo": "true", "user-token": "", "admin-token": "",
		"replica-of": "", "primary-token": "", "log-level": "info",
	}
	fs := newFlagSet()
	if _, err := parseFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	got := 0
	fs.VisitAll(func(f *flag.Flag) {
		got++
		if def, ok := want[f.Name]; !ok {
			t.Errorf("flag -%s is not part of the pinned surface", f.Name)
		} else if f.DefValue != def {
			t.Errorf("-%s defaults to %q, want %q", f.Name, f.DefValue, def)
		}
	})
	if got != len(want) {
		t.Errorf("%d flags defined, want %d", got, len(want))
	}

	for _, arg := range []string{
		"-bank-shards=16", "-wal-group-commit", "-kv-index-shards=16", "-kv-segment-bytes=67108864",
		"-replica-poll=500ms", "-crypto-precompute", "-crypto-nonce-pool=256", "-crypto-pool-fillers=1",
		"-slo-latency=250ms",
	} {
		_, err := parseFlags(newFlagSet(), []string{arg})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want flag provided but not defined", arg, err)
		}
	}

	for _, tc := range []struct {
		args    []string
		refused bool
	}{
		{[]string{"-lab"}, false},
		{[]string{"-rsa-bits", "3072"}, false},
		{[]string{"-lab", "-rsa-bits", "2048"}, true},
		{[]string{"-rsa-bits=1024", "-lab"}, true},
	} {
		if _, err := parseFlags(newFlagSet(), tc.args); (err != nil) != tc.refused {
			t.Errorf("%v: err = %v, want refused = %v", tc.args, err, tc.refused)
		}
	}
	if fl, err := parseFlags(newFlagSet(), []string{"-lab"}); err != nil || fl.rsaBits != labRSABits {
		t.Errorf("-lab: rsaBits = %+v, %v; want %d", fl, err, labRSABits)
	}
}

// TestParentEraOpsDirIsLeftAlone: a state directory written by a daemon
// that still had the operations registry holds <state>/ops with a
// record in flight. The daemon boots on it, serves a compaction
// synchronously, and leaves that directory byte-identical.
func TestParentEraOpsDirIsLeftAlone(t *testing.T) {
	bin := buildDaemon(t)
	state := filepath.Join(t.TempDir(), "state")
	ops, err := kvstore.OpenWith(filepath.Join(state, "ops"), walOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ops.Put([]byte("op:5b3a9f0c12d4e6a7"),
		[]byte(`{"id":"5b3a9f0c12d4e6a7","kind":"compact","status":"running","params":{"store":"provider"}}`)); err != nil {
		t.Fatal(err)
	}
	if err := ops.Close(); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, filepath.Join(state, "ops"))

	cmd, c := startDaemon(t, bin, "-lab", "-state", state)
	if res, err := c.CompactStore(); err != nil || res.Store != "provider" {
		t.Fatalf("compact = %+v, %v", res, err)
	}
	stopDaemon(t, cmd)
	if after := readTree(t, filepath.Join(state, "ops")); !reflect.DeepEqual(before, after) {
		t.Errorf("ops directory changed: %d files before, %d after", len(before), len(after))
	}
}

// TestBootOverARevocationList boots -lab on a state directory whose
// provider store already holds 70 000 revoked serials. The keys, the
// generator table and the WAL replays run side by side, and so do the
// demo items' key generations: the daemon must come up healthy and
// answer for every serial, sign a filter that holds them with the
// geometry fuse sizes for the exact count, and list three items under
// three distinct denomination keys.
func TestBootOverARevocationList(t *testing.T) {
	bin := buildDaemon(t)
	state := filepath.Join(t.TempDir(), "state")
	const n = 70_000
	serials := make([]license.Serial, n)
	for i := range serials {
		sum := sha256.Sum256(binary.BigEndian.AppendUint64([]byte("p2drmd/test/revoked"), uint64(i)))
		copy(serials[i][:], sum[:])
	}
	st, err := kvstore.Open(filepath.Join(state, "provider"))
	if err != nil {
		t.Fatal(err)
	}
	list, err := revocation.Open(st, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 1000 {
		if err := list.AddBatch(serials[i:min(i+1000, n)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	cmd, c := startDaemon(t, bin, "-lab", "-state", state)
	for _, i := range []int{0, 1, n / 2, n - 1} {
		if found, err := c.RevocationContains(serials[i]); err != nil || !found {
			t.Errorf("contains(serial %d) = %v, %v; want revoked", i, found, err)
		}
	}
	var fresh license.Serial
	if found, err := c.RevocationContains(fresh); err != nil || found {
		t.Errorf("contains(never-revoked serial) = %v, %v", found, err)
	}

	pub, err := c.ProviderKey()
	if err != nil {
		t.Fatal(err)
	}
	sf, err := c.RevocationFilter()
	if err != nil {
		t.Fatal(err)
	}
	filter, err := revocation.VerifyFilter(pub, sf)
	if err != nil {
		t.Fatal(err)
	}
	segLen, segCount := fuse.Geometry(n)
	if filter.SegmentLength() != segLen || filter.SegmentCount() != segCount || filter.Count() != n {
		t.Errorf("signed filter has %d segments of %d for n=%d, want %d of %d for n=%d",
			filter.SegmentCount(), filter.SegmentLength(), filter.Count(), segCount, segLen, n)
	}
	for i, s := range serials {
		if !filter.Contains(s[:]) {
			t.Fatalf("signed filter misses serial %d", i)
		}
	}

	items, err := c.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	moduli := map[string]string{}
	for _, it := range items {
		key, _, err := c.Denomination(license.ContentID(it.ID))
		if err != nil {
			t.Fatalf("denomination %s: %v", it.ID, err)
		}
		if other, dup := moduli[key.N.String()]; dup {
			t.Errorf("%s and %s share a denomination key", it.ID, other)
		}
		moduli[key.N.String()] = it.ID
	}
	if len(items) != 3 || len(moduli) != 3 {
		t.Errorf("%d demo items under %d denomination keys, want 3 and 3", len(items), len(moduli))
	}
	stopDaemon(t, cmd)
}

// TestOneStorePerDaemon: a primary with auth tokens keeps one store,
// <state>/provider, reports it under the one name "provider" in
// /v2/stats, /v2/replica/status and the kvstore metric families, and
// refuses its log to a guest; a replica that presents the primary's
// admin token tails it with one follower into <state>/replica-provider,
// labels its replica families store="provider", and promotes that one
// store. Both roles drain on SIGTERM.
func TestOneStorePerDaemon(t *testing.T) {
	bin := buildDaemon(t)
	root := t.TempDir()
	pstate, rstate := filepath.Join(root, "primary"), filepath.Join(root, "replica")
	st, err := kvstore.Open(filepath.Join(pstate, "provider"))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"spent:a", "spent:b", "issued:x"} {
		if err := st.Put([]byte(k), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	primary, pc := startDaemon(t, bin, "-lab", "-state", pstate, "-user-token", "u", "-admin-token", "a")
	if _, err := pc.ReplicaManifest(false); err == nil || !strings.Contains(err.Error(), "login-required") {
		t.Errorf("guest manifest read: %v, want login-required", err)
	}
	if stats, err := pc.Stats(); err != nil || !onlyProvider(stats.Stores) {
		t.Errorf("primary /v2/stats = %+v, %v; want the one store provider", stats, err)
	}
	if st, err := pc.ReplicaStatus(); err != nil || !onlyProvider(st.Stores) {
		t.Errorf("primary /v2/replica/status = %+v, %v; want the one store provider", st, err)
	}
	m := scrape(t, pc)
	for _, fam := range []string{"p2drm_kvstore_logged_bytes", "p2drm_kvstore_commit_wait_seconds_count"} {
		if _, ok := m.Value(fam, map[string]string{"store": "provider"}); !ok {
			t.Errorf(`primary /v2/metrics has no %s{store="provider"}`, fam)
		}
	}
	replicaCmd, rc := startDaemon(t, bin, "-state", rstate, "-replica-of", pc.BaseURL, "-primary-token", "a")
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		st, err := rc.ReplicaStatus()
		stats, serr := rc.Stats()
		if err == nil && serr == nil && onlyProvider(st.Replica) && st.Replica["provider"].CaughtUp &&
			onlyProvider(stats.Stores) && stats.Stores["provider"].LiveKeys == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: %+v, %v", st, err)
		}
	}
	// NewReplicaServer registers the follower's families and installs its
	// observer: the catch-up applied batches.
	m = scrape(t, rc)
	if n, ok := m.Value("p2drm_replica_records_applied_total", map[string]string{"store": "provider"}); !ok || n < 3 {
		t.Errorf(`replica p2drm_replica_records_applied_total{store="provider"} = %v, %v; want ≥ 3`, n, ok)
	}
	if n, ok := m.Value("p2drm_replica_apply_duration_seconds_count", map[string]string{"store": "provider"}); !ok || n < 1 {
		t.Errorf(`replica p2drm_replica_apply_duration_seconds_count{store="provider"} = %v, %v; want ≥ 1`, n, ok)
	}
	rc.Token = "a"
	if res, err := rc.Promote(); err != nil || len(res.Promoted) != 1 || res.Promoted[0] != "provider" {
		t.Fatalf("promote = %+v, %v", res, err)
	}
	stopDaemon(t, replicaCmd)
	stopDaemon(t, primary)
	for dir, want := range map[string]string{pstate: "provider", rstate: "replica-provider"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != want {
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Errorf("%s holds %v, want [%s]", dir, names, want)
		}
	}
}

// TestReplicaTimesEveryApply: the replica's HTTP surface, and with it the
// follower's metrics observer, is in place before the follower starts, so
// the applies that bring a new replica up to a primary that already holds
// records are timed like every later one, and so are those of a snapshot
// resync.
func TestReplicaTimesEveryApply(t *testing.T) {
	opts := walOpts
	opts.SegmentBytes = 256 // the records span sealed segments, which a snapshot carries
	store, err := kvstore.OpenWith(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const records = 20
	for i := 0; i < records; i++ {
		if err := store.Put([]byte(fmt.Sprintf("issued:%03d", i)), []byte("licence")); err != nil {
			t.Fatal(err)
		}
	}
	primary := httptest.NewServer(httpapi.NewServer(nil).WithStore(store))
	defer primary.Close()

	f, handler, err := startReplica(&flagValues{replicaOf: primary.URL, stateDir: t.TempDir()}, httpapi.Auth{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if st := f.Status(); st.CaughtUp && f.Stats().LiveKeys == records {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never caught up: %+v", f.Status())
		}
	}
	rs := httptest.NewServer(handler)
	defer rs.Close()
	applies := func() float64 {
		n, _ := scrape(t, httpapi.NewClient(rs.URL, nil)).Value("p2drm_replica_apply_duration_seconds_count", map[string]string{"store": "provider"})
		return n
	}
	caughtUp := applies()
	if caughtUp < 1 {
		t.Errorf(`p2drm_replica_apply_duration_seconds_count{store="provider"} = %v after catching up; want ≥ 1`, caughtUp)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.Resync(ctx); err != nil {
		t.Fatal(err)
	}
	if resynced := applies(); resynced <= caughtUp {
		t.Errorf(`p2drm_replica_apply_duration_seconds_count{store="provider"} = %v after a snapshot resync, %v before; want it to rise`, resynced, caughtUp)
	}
}

// onlyProvider reports whether m holds exactly the key "provider", the
// daemon's one store.
func onlyProvider[V any](m map[string]V) bool {
	_, ok := m["provider"]
	return ok && len(m) == 1
}

// scrape fetches and parses c's /v2/metrics.
func scrape(t *testing.T, c *httpapi.Client) *obs.Metrics {
	t.Helper()
	raw, err := c.MetricsV2()
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ParseMetrics(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// buildDaemon builds this package's daemon into a temporary directory,
// with the race detector when the test binary runs under it. It skips in
// -short.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and boots the daemon; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "p2drmd")
	args := []string{"build", "-o", bin}
	if raceEnabled {
		args = append(args, "-race")
	}
	if out, err := exec.Command("go", append(args, ".")...).CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon starts bin with args on a free loopback port and returns
// once /v2/health answers 200. The process is killed at cleanup unless
// stopDaemon already stopped it.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, *httpapi.Client) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	c := httpapi.NewClient("http://"+addr, nil)
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if _, code, err := c.HealthV2(); err == nil && code == http.StatusOK {
			return cmd, c
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
	}
}

// stopDaemon sends SIGTERM and expects a clean exit.
func stopDaemon(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
}

// readTree maps every file under dir to its contents.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
