package main

// Daemon processes: build cmd/p2drmd once, boot a fresh primary + one
// replica per repetition on free ports and a fresh state directory, and
// make sure nothing outlives the benchmark.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"p2drm/internal/cryptox/schnorr"
	"p2drm/internal/httpapi"
)

// bootTimeout bounds every wait on a daemon (health, catch-up).
const bootTimeout = 30 * time.Second

// buildDaemon compiles cmd/p2drmd from the module rooted at root into
// bin and returns how long that took. The go build cache makes every
// build after the first one a sub-second check.
func buildDaemon(root, bin string) (seconds float64, err error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/p2drmd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/p2drmd: %v\n%s", err, out)
	}
	return time.Since(start).Seconds(), nil
}

// daemon is one running p2drmd.
type daemon struct {
	role    string
	cmd     *exec.Cmd
	url     string
	logPath string
	started time.Time
	exited  chan struct{} // closed once the process has been reaped
}

// live tracks every running daemon so a signal or panic can kill them.
var live struct {
	sync.Mutex
	daemons map[*daemon]struct{}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts one daemon in its own process group with its output in
// dir/<role>.log. Pdeathsig covers the one exit path a deferred kill
// cannot: the benchmark itself being SIGKILLed.
func spawn(bin, dir, role string, extra ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, role+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	args := append([]string{
		"-lab", "-state", filepath.Join(dir, role), "-addr", addr, "-log-level", "warn",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d := &daemon{role: role, cmd: cmd, url: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	live.Lock()
	if live.daemons == nil {
		live.daemons = make(map[*daemon]struct{})
	}
	live.daemons[d] = struct{}{}
	live.Unlock()
	go func() {
		cmd.Wait() // exit status is irrelevant: any early exit fails the repetition
		close(d.exited)
	}()
	return d, nil
}

// stop kills the daemon's process group and waits until it is reaped.
func (d *daemon) stop() {
	syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // ESRCH when already gone
	<-d.exited
	live.Lock()
	delete(live.daemons, d)
	live.Unlock()
}

// killAll stops every daemon still running; the exit, signal and panic
// paths all end here.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.daemons))
	for d := range live.daemons {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// alive returns an error carrying the last 40 log lines if the daemon
// has exited.
func (d *daemon) alive() error {
	select {
	case <-d.exited:
		return fmt.Errorf("%s daemon exited early; last log lines:\n%s", d.role, tailLines(d.logPath, 40))
	default:
		return nil
	}
}

func tailLines(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// waitFor polls cond every 2 ms until it holds, the daemon dies or
// bootTimeout passes.
func (d *daemon) waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(bootTimeout)
	for !cond() {
		if err := d.alive(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s daemon: timed out waiting for %s; last log lines:\n%s", d.role, what, tailLines(d.logPath, 40))
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// topology is one repetition's primary + replica.
type topology struct {
	primary, replica *daemon
	// httpc is shared by every client of this topology; its idle
	// connections are dropped with it.
	httpc *http.Transport
	// bootMS is primary spawn → /v2/health 200; bootstrapMS is replica
	// spawn → both stores caught up.
	bootMS, bootstrapMS float64
}

// client returns an SDK client for url. Each worker gets its own so a
// traced run can hang a recorder on the transport.
func (t *topology) client(url string, rec *recorder) *httpapi.Client {
	c := httpapi.NewClient(url, schnorr.Group768())
	var rt http.RoundTripper = t.httpc
	if rec != nil {
		rt = &spanTransport{base: t.httpc, rec: rec}
	}
	c.HTTP = &http.Client{Transport: rt, Timeout: 20 * time.Second}
	return c
}

func healthy(c *httpapi.Client) bool {
	h, code, err := c.HealthV2()
	return err == nil && code == http.StatusOK && h.Status == "ok"
}

// caughtUp reports whether both replica stores are tailing with no lag
// and have contacted the primary after since.
func caughtUp(c *httpapi.Client, since time.Time) bool {
	st, err := c.ReplicaStatus()
	if err != nil || len(st.Replica) == 0 {
		return false
	}
	for _, s := range st.Replica {
		if !s.CaughtUp || s.LagBytes != 0 || s.LagSegments != 0 || !s.LastContact.After(since) {
			return false
		}
	}
	return true
}

// startTopology boots a primary and, once it is healthy, a replica, and
// returns when the replica has caught up.
func startTopology(bin, dir string) (*topology, error) {
	t := &topology{httpc: &http.Transport{MaxIdleConnsPerHost: 16}}
	var err error
	if t.primary, err = spawn(bin, dir, "primary"); err != nil {
		return nil, err
	}
	pc := t.client(t.primary.url, nil)
	if err := t.primary.waitFor("/v2/health 200", func() bool { return healthy(pc) }); err != nil {
		t.stop()
		return nil, err
	}
	t.bootMS = float64(time.Since(t.primary.started)) / 1e6
	if t.replica, err = spawn(bin, dir, "replica", "-seed-demo=false", "-replica-of", t.primary.url); err != nil {
		t.stop()
		return nil, err
	}
	rc := t.client(t.replica.url, nil)
	err = t.replica.waitFor("health ok and caught up", func() bool {
		return healthy(rc) && caughtUp(rc, t.replica.started)
	})
	if err != nil {
		t.stop()
		return nil, err
	}
	t.bootstrapMS = float64(time.Since(t.replica.started)) / 1e6
	return t, nil
}

func (t *topology) stop() {
	for _, d := range []*daemon{t.replica, t.primary} {
		if d != nil {
			d.stop()
		}
	}
	t.httpc.CloseIdleConnections()
}

// alive fails when either daemon has exited.
func (t *topology) alive() error {
	return errors.Join(t.primary.alive(), t.replica.alive())
}

// cpuMS returns the on-CPU time of process pid in ms: the first field of
// every thread's /proc/<pid>/task/<tid>/schedstat (ns; the file directly
// under /proc/<pid> covers the main thread only), falling back to
// utime+stime from /proc/<pid>/stat (clock ticks, taken as 100 Hz).
func cpuMS(pid int) (float64, bool) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	total, found := 0.0, false
	for _, task := range tasks {
		data, err := os.ReadFile(task)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			if ns, err := strconv.ParseFloat(f[0], 64); err == nil {
				total, found = total+ns/1e6, true
			}
		}
	}
	if found {
		return total, true
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, false
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	rest := data[bytes.LastIndexByte(data, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, false
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return (utime + stime) * 10, true
}

// rssHighWaterMB returns VmHWM from /proc/<pid>/status in MB.
func rssHighWaterMB(pid int) (float64, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024, true
				}
			}
		}
	}
	return 0, false
}
