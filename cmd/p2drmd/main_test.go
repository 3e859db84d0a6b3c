package main

import (
	"flag"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"p2drm/internal/httpapi"
	"p2drm/internal/kvstore"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("p2drmd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// TestFlagSurface pins the daemon's flags: the twelve names and their
// defaults, that a retired tuning flag is refused rather than ignored,
// and that -lab cannot silently discard an explicit -rsa-bits.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"addr": ":8474", "admin-socket": "", "state": "", "rsa-bits": "2048",
		"lab": "false", "seed-demo": "true", "user-token": "", "admin-token": "",
		"replica-of": "", "primary-token": "", "log-level": "info", "slo-latency": "250ms",
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
	if testing.Short() {
		t.Skip("builds and boots the daemon; skipped in -short")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "p2drmd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	state := filepath.Join(tmp, "state")
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

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-lab", "-state", state, "-addr", addr)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	c := httpapi.NewClient("http://"+addr, nil)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if _, code, err := c.HealthV2(); err == nil && code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
	}
	if res, err := c.CompactStore("provider"); err != nil || res.Store != "provider" {
		t.Fatalf("compact = %+v, %v", res, err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
	if after := readTree(t, filepath.Join(state, "ops")); !reflect.DeepEqual(before, after) {
		t.Errorf("ops directory changed: %d files before, %d after", len(before), len(after))
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
