package main

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2drm/internal/httpapi"
	"p2drm/internal/obs"
	"p2drm/internal/provider"
)

// buildDaemon builds p2drmd into a temporary directory, with the race
// detector when the test binary runs under it. It skips in -short.
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
	if out, err := exec.Command("go", append(args, "p2drm/cmd/p2drmd")...).CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon boots a lab-parameter daemon with its demo catalog on a
// free loopback port and returns its base URL once /v2/health answers
// 200. The process is killed at cleanup.
func startDaemon(t *testing.T, bin string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-lab", "-state", t.TempDir(), "-addr", addr)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	c := httpapi.NewClient("http://"+addr, nil)
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if _, code, err := c.HealthV2(); err == nil && code == http.StatusOK {
			return "http://" + addr
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
	}
}

// cli runs one p2drm command against server with the wallet in home and
// returns what it wrote to stdout.
func cli(server, home string, args ...string) (string, error) {
	var out bytes.Buffer
	err := run(append([]string{"-lab", "-server", server, "-home", home}, args...), &out)
	return out.String(), err
}

// mustCLI is cli failing the test on an error.
func mustCLI(t *testing.T, server, home string, args ...string) string {
	t.Helper()
	out, err := cli(server, home, args...)
	if err != nil {
		t.Fatalf("p2drm %s: %v", strings.Join(args, " "), err)
	}
	return out
}

// licenseLines returns the license lines of `p2drm wallet` output.
func licenseLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		if l != "" && l != "(wallet empty)" && !strings.HasPrefix(l, "purse:") {
			lines = append(lines, l)
		}
	}
	return lines
}

// coinsWithdrawn reads the bank's withdrawn-coin counter off /v2/metrics.
func coinsWithdrawn(t *testing.T, server string) float64 {
	t.Helper()
	raw, err := httpapi.NewClient(server, nil).MetricsV2()
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ParseMetrics(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	n, ok := m.Value("p2drm_bank_coins_withdrawn_total", nil)
	if !ok {
		t.Fatal("no p2drm_bank_coins_withdrawn_total on /v2/metrics")
	}
	return n
}

// TestCLI drives every command against a live daemon: buy, list, play,
// exchange, redeem, a refused second redemption, and buys whose purchase
// a proxy drops before or after delivering it.
func TestCLI(t *testing.T) {
	server := startDaemon(t, buildDaemon(t))
	dir := t.TempDir()
	alice, bob := filepath.Join(dir, "alice"), filepath.Join(dir, "bob")

	mustCLI(t, server, alice, "init", "alice")
	if out := mustCLI(t, server, alice, "catalog"); !strings.Contains(out, "song-blue") {
		t.Fatalf("catalog lists no song-blue:\n%s", out)
	}
	mustCLI(t, server, alice, "buy", "song-blue")
	lines := licenseLines(mustCLI(t, server, alice, "wallet"))
	if len(lines) != 1 || !strings.Contains(lines[0], "song-blue") {
		t.Fatalf("wallet after one buy: %q", lines)
	}
	serial := strings.Fields(lines[0])[0]

	played := filepath.Join(dir, "played.bin")
	mustCLI(t, server, alice, "-o", played, "play", serial)
	if got, err := os.ReadFile(played); err != nil || string(got) != "demo content payload for song-blue" {
		t.Fatalf("played %q (%v), want the demo payload", got, err)
	}

	tok := filepath.Join(dir, "tok")
	mustCLI(t, server, alice, "-o", tok, "exchange", serial)
	if out := mustCLI(t, server, alice, "wallet"); len(licenseLines(out)) != 0 {
		t.Errorf("exchanged license still in the wallet:\n%s", out)
	}
	mustCLI(t, server, bob, "init", "bob")
	mustCLI(t, server, bob, "redeem", tok)
	if lines := licenseLines(mustCLI(t, server, bob, "wallet")); len(lines) != 1 || !strings.Contains(lines[0], "song-blue") {
		t.Fatalf("bob's wallet after redeem: %q", lines)
	}
	if _, err := cli(server, bob, "redeem", tok); err == nil || !strings.Contains(err.Error(), provider.ErrAlreadyRedeemed.Error()) {
		t.Errorf("second redeem: %v, want %q", err, provider.ErrAlreadyRedeemed)
	}

	t.Run("DroppedPurchaseKeepsCoins", func(t *testing.T) {
		proxy := dropFirstPurchase(t, server, false)
		carol := filepath.Join(dir, "carol")
		mustCLI(t, proxy, carol, "init", "carol")
		before := coinsWithdrawn(t, server)

		if _, err := cli(proxy, carol, "buy", "song-blue"); err == nil {
			t.Fatal("buy succeeded through a dropped purchase")
		}
		out := mustCLI(t, proxy, carol, "wallet")
		if !strings.Contains(out, "purse: 2 unspent coins") {
			t.Fatalf("wallet after the dropped purchase:\n%s", out)
		}
		if got := coinsWithdrawn(t, server) - before; got != 2 {
			t.Fatalf("the failed buy withdrew %v coins, want 2", got)
		}

		mustCLI(t, proxy, carol, "buy", "song-blue")
		out = mustCLI(t, proxy, carol, "wallet")
		if len(licenseLines(out)) != 1 || strings.Contains(out, "purse:") {
			t.Fatalf("wallet after the second buy:\n%s", out)
		}
		if got := coinsWithdrawn(t, server) - before; got != 2 {
			t.Errorf("two buys of a 2-credit item withdrew %v coins, want 2", got)
		}
	})

	// The purchase goes through but its answer is lost: the next buy is
	// refused on each spent coin, drops it, withdraws one more, and
	// succeeds within the one command.
	t.Run("LostAnswerCoinsLeaveThePurse", func(t *testing.T) {
		proxy := dropFirstPurchase(t, server, true)
		dave := filepath.Join(dir, "dave")
		mustCLI(t, proxy, dave, "init", "dave")
		before := coinsWithdrawn(t, server)

		if _, err := cli(proxy, dave, "buy", "song-blue"); err == nil {
			t.Fatal("buy succeeded through a lost answer")
		}
		mustCLI(t, proxy, dave, "buy", "song-blue")
		out := mustCLI(t, proxy, dave, "wallet")
		if len(licenseLines(out)) != 1 || strings.Contains(out, "purse:") {
			t.Fatalf("wallet after the second buy:\n%s", out)
		}
		if got := coinsWithdrawn(t, server) - before; got != 4 {
			t.Errorf("two delivered purchases of a 2-credit item withdrew %v coins, want 4", got)
		}
	})
}

// dropFirstPurchase serves a proxy to server that closes the connection
// on the first POST /v2/purchase without answering it: after forwarding
// it when deliver is set, before otherwise.
func dropFirstPurchase(t *testing.T, server string, deliver bool) string {
	t.Helper()
	target, err := url.Parse(server)
	if err != nil {
		t.Fatal(err)
	}
	fwd := httputil.NewSingleHostReverseProxy(target)
	var dropped atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v2/purchase" && dropped.CompareAndSwap(false, true) {
			if deliver {
				fwd.ServeHTTP(httptest.NewRecorder(), r)
			}
			conn, _, err := http.NewResponseController(w).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
			return
		}
		fwd.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}
