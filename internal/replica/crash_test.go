package replica_test

// Replication crash suite, extending the internal/kvstore SIGKILL
// harness pattern across process boundaries:
//
//   - follower_killed: the parent hosts a live primary (HTTP) under
//     write load; a follower CHILD process tails it and is SIGKILLed
//     mid-apply. Its recovered on-disk state must be a consistent
//     prefix of the primary's history (no half-applied primary record,
//     no credit without its spent mark), and a restarted follower must
//     converge from its durable cursor to the primary's exact live set.
//
//   - primary_killed: a primary CHILD process (store + replica HTTP
//     endpoints + writer load, optionally a compaction loop) is
//     SIGKILLed mid-stream while the parent tails it. The parent then
//     replays the primary's log directly — every write the child
//     acknowledged must have survived — and a follower restart against
//     the recovered primary (new epoch) must converge to that exact
//     durable state.
//
// Both scenarios drive the same Deposit-shaped workload as the kvstore
// crash child: PutIfAbsent("spent:id") durable → ACK → Put("credit:id")
// → churn a hot key, so sealed segments accumulate garbage and the kill
// can land inside applies, rolls and compaction swaps.

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"p2drm/internal/httpapi"
	"p2drm/internal/kvstore"
	"p2drm/internal/replica"
)

const (
	crashModeEnv = "REPLICA_CRASH_CHILD" // "primary" | "follower"
	crashDirEnv  = "REPLICA_CRASH_DIR"
	crashURLEnv  = "REPLICA_CRASH_URL"
)

func TestMain(m *testing.M) {
	switch os.Getenv(crashModeEnv) {
	case "primary":
		crashPrimaryMain()
		return
	case "follower":
		crashFollowerMain()
		return
	}
	os.Exit(m.Run())
}

func crashKVOpts() kvstore.Options {
	return kvstore.Options{Sync: kvstore.SyncGroupCommit, SegmentBytes: 2048}
}

// primaryLoad runs the Deposit-shaped writer goroutines against s until
// the process dies, ACKing each durable spent mark on stdout.
func primaryLoad(s *kvstore.Store) {
	var mu sync.Mutex
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; ; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				if _, err := s.PutIfAbsent([]byte("spent:"+id), []byte{1}); err != nil {
					fmt.Fprintf(os.Stderr, "child put: %v\n", err)
					os.Exit(2)
				}
				mu.Lock()
				fmt.Fprintf(os.Stdout, "ack %s\n", id)
				mu.Unlock()
				if err := s.Put([]byte("credit:"+id), []byte{1}); err != nil {
					fmt.Fprintf(os.Stderr, "child credit: %v\n", err)
					os.Exit(2)
				}
				if err := s.Put([]byte(fmt.Sprintf("hot:%d", g)), []byte(id)); err != nil {
					fmt.Fprintf(os.Stderr, "child hot: %v\n", err)
					os.Exit(2)
				}
			}
		}(g)
	}
}

// crashPrimaryMain: store + replica HTTP surface + writer load +
// compaction churn, until SIGKILLed.
func crashPrimaryMain() {
	time.AfterFunc(30*time.Second, func() { os.Exit(3) })
	s, err := kvstore.OpenWith(os.Getenv(crashDirEnv), crashKVOpts())
	if err != nil {
		fmt.Fprintf(os.Stderr, "child open: %v\n", err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "child listen: %v\n", err)
		os.Exit(2)
	}
	srv := httpapi.NewServer(nil).WithStore(s)
	go http.Serve(ln, srv) //nolint:errcheck
	fmt.Fprintf(os.Stdout, "addr http://%s\n", ln.Addr())
	// Compaction races the segment streams (pins + gen guards at work).
	go func() {
		for {
			s.CompactStep() //nolint:errcheck
			time.Sleep(5 * time.Millisecond)
		}
	}()
	primaryLoad(s)
	select {}
}

// crashFollowerMain tails the parent's primary until SIGKILLed,
// reporting applied-record progress so the parent can time its kill.
func crashFollowerMain() {
	time.AfterFunc(30*time.Second, func() { os.Exit(3) })
	client := httpapi.NewClient(os.Getenv(crashURLEnv), nil)
	f, err := replica.Open(replica.Options{
		Dir:          os.Getenv(crashDirEnv),
		Fetch:        httpapi.NewReplicaFetcher(client),
		PollInterval: 2 * time.Millisecond,
		BackoffMin:   5 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "follower open: %v\n", err)
		os.Exit(2)
	}
	f.Start()
	for {
		st := f.Status()
		fmt.Fprintf(os.Stdout, "applied %d\n", st.Records)
		time.Sleep(5 * time.Millisecond)
	}
}

// verifyPrefixConsistency checks the Deposit invariant on a store:
// every credit has its spent mark (the reverse — spent without credit —
// is a safe lost tail).
func verifyPrefixConsistency(t *testing.T, s *kvstore.Store, label string) int {
	t.Helper()
	credits := 0
	s.PrefixScan([]byte("credit:"), func(k, v []byte) bool {
		credits++
		id := strings.TrimPrefix(string(k), "credit:")
		if !s.Has([]byte("spent:" + id)) {
			t.Errorf("%s: credit:%s without spent:%s (reordered apply)", label, id, id)
		}
		return true
	})
	return credits
}

// verifyFollowerMatches asserts the follower's live set equals the
// primary store's, exactly.
func verifyFollowerMatches(t *testing.T, f *replica.Follower, primary *kvstore.Store) {
	t.Helper()
	if got, want := f.Stats().LiveKeys, primary.Len(); got != want {
		t.Fatalf("follower has %d live keys, primary %d", got, want)
	}
	primary.ForEach(func(k, v []byte) bool {
		got, ok := f.Get(k)
		if !ok || string(got) != string(v) {
			t.Errorf("follower %q = (%q,%v), primary %q", k, got, ok, v)
			return false
		}
		return true
	})
}

// currentGenDir resolves a follower state dir to its CURRENT store dir.
func currentGenDir(t *testing.T, dir string) string {
	t.Helper()
	b, err := os.ReadFile(dir + "/CURRENT")
	if err != nil {
		t.Fatalf("read CURRENT: %v", err)
	}
	return dir + "/" + strings.TrimSpace(string(b))
}

// TestReplicaCrashFollowerKilled SIGKILLs a follower child mid-apply.
func TestReplicaCrashFollowerKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	// In-process primary under real write load.
	primary, err := kvstore.OpenWith(t.TempDir(), crashKVOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("g%d-%d", g, i)
				if _, err := primary.PutIfAbsent([]byte("spent:"+id), []byte{1}); err != nil {
					t.Errorf("primary put: %v", err)
					return
				}
				if err := primary.Put([]byte("credit:"+id), []byte{1}); err != nil {
					t.Errorf("primary credit: %v", err)
					return
				}
				if err := primary.Put([]byte(fmt.Sprintf("hot:%d", g)), []byte(id)); err != nil {
					t.Errorf("primary hot: %v", err)
					return
				}
			}
		}(g)
	}
	srv := httpapi.NewServer(nil).WithStore(primary)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hsrv := &http.Server{Handler: srv}
	go hsrv.Serve(ln) //nolint:errcheck
	defer hsrv.Close()

	fdir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		crashModeEnv+"=follower",
		crashDirEnv+"="+fdir,
		crashURLEnv+"=http://"+ln.Addr().String())
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill once the child is demonstrably mid-apply (progress growing).
	sc := bufio.NewScanner(stdout)
	var lastApplied int64
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && sc.Scan() {
		var n int64
		if _, err := fmt.Sscanf(sc.Text(), "applied %d", &n); err == nil {
			lastApplied = n
			if n > 500 {
				break
			}
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Logf("kill: %v", err)
	}
	go func() {
		for sc.Scan() {
		}
	}()
	cmd.Wait() //nolint:errcheck — expected: signal: killed
	if lastApplied == 0 {
		t.Fatal("follower child made no progress before the kill")
	}
	close(stop)
	wg.Wait()
	t.Logf("killed follower after %d applied records; primary has %d keys", lastApplied, primary.Len())

	// The follower's durable state alone must be a consistent prefix.
	recovered, err := kvstore.OpenWith(currentGenDir(t, fdir), crashKVOpts())
	if err != nil {
		t.Fatalf("follower state unreadable after SIGKILL: %v", err)
	}
	credits := verifyPrefixConsistency(t, recovered, "recovered follower")
	t.Logf("recovered follower: %d keys, %d credits", recovered.Len(), credits)
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted follower converges from its durable cursor to the
	// primary's durable prefix (the primary is idle now, so to its
	// exact live set), fetching from the source the child tailed.
	f, err := replica.Open(replica.Options{
		Dir:          fdir,
		Fetch:        httpapi.NewReplicaFetcher(httpapi.NewClient("http://"+ln.Addr().String(), nil)),
		PollInterval: 5 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Start()
	waitDeadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(waitDeadline) {
		st := f.Status()
		if st.CaughtUp && st.LagBytes == 0 && f.Stats().LiveKeys == primary.Len() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	verifyFollowerMatches(t, f, primary)
	verifyPrefixConsistency(t, primary, "primary")
}

// TestReplicaCrashPrimaryKilled SIGKILLs the primary child mid-stream.
func TestReplicaCrashPrimaryKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	pdir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		crashModeEnv+"=primary",
		crashDirEnv+"="+pdir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	var primaryURL string
	for sc.Scan() {
		if u, ok := strings.CutPrefix(sc.Text(), "addr "); ok {
			primaryURL = u
			break
		}
	}
	if primaryURL == "" {
		t.Fatal("primary child printed no address")
	}

	// Parent-side follower tails the child over HTTP.
	fdir := t.TempDir()
	client := httpapi.NewClient(primaryURL, nil)
	f, err := replica.Open(replica.Options{
		Dir:          fdir,
		Fetch:        httpapi.NewReplicaFetcher(client),
		PollInterval: 2 * time.Millisecond,
		BackoffMin:   5 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()

	// Collect ACKs until the follower is visibly mid-stream, then kill
	// the primary with segment streams in flight.
	acked := make([]string, 0, 1024)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && sc.Scan() {
		if id, ok := strings.CutPrefix(sc.Text(), "ack "); ok {
			acked = append(acked, id)
		}
		if len(acked) >= 300 && f.Status().Bytes > 0 {
			break
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Logf("kill: %v", err)
	}
	for sc.Scan() { // every ACK printed was durably acknowledged
		if id, ok := strings.CutPrefix(sc.Text(), "ack "); ok {
			acked = append(acked, id)
		}
	}
	cmd.Wait() //nolint:errcheck
	if len(acked) == 0 {
		t.Fatal("primary child produced no acknowledged writes")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay the dead primary's log: all acknowledged writes survive.
	recovered, err := kvstore.OpenWith(pdir, crashKVOpts())
	if err != nil {
		t.Fatalf("primary replay after crash: %v", err)
	}
	defer recovered.Close()
	for _, id := range acked {
		if !recovered.Has([]byte("spent:" + id)) {
			t.Errorf("acknowledged spent:%s lost in primary crash", id)
		}
	}
	verifyPrefixConsistency(t, recovered, "recovered primary")

	// Follower restart against the recovered primary (fresh epoch →
	// snapshot fallback) must converge to its durable prefix exactly.
	src := replica.NewSource(recovered)
	f2, err := replica.Open(replica.Options{
		Dir:          fdir,
		Fetch:        replica.LocalFetcher{Src: src},
		PollInterval: 5 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	f2.Start()
	waitDeadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(waitDeadline) {
		st := f2.Status()
		if st.CaughtUp && st.LagBytes == 0 && f2.Stats().LiveKeys == recovered.Len() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	verifyFollowerMatches(t, f2, recovered)
	if f2.Status().Resyncs == 0 {
		t.Error("follower reused a cursor from a dead primary epoch without resync")
	}
	t.Logf("primary_killed: %d acked, recovered %d keys, follower resyncs=%d",
		len(acked), recovered.Len(), f2.Status().Resyncs)
}
