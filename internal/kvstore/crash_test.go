package kvstore

// Crash-recovery harness: TestMain re-execs the test binary as a writer
// child that is SIGKILLed mid-flight, then the parent replays the log and
// checks the durability invariants the payment layer builds on:
//
//  1. Acknowledged writes survive: every key the child reported AFTER its
//     durable PutIfAbsent returned must be present after replay (a
//     spent-serial is never lost once Deposit returned nil).
//  2. Ordering: the child writes "spent:X" durably before "credit:X", so
//     replay may show a spent mark without its credit (lost credit, safe)
//     but never a credit without its spent mark (minted money, unsafe).
//  3. Compaction transparency: compacting whatever the crash left behind
//     and reopening yields byte-for-byte the same live set.
//
// TestCrashRecoveryCommitSet kills a second kind of child, which writes
// the way provider.Purchase does — two stores under one commit set with a
// payment-before-goods barrier between them — and checks the cross-store
// form of the same two invariants.
//
// Three scenarios steer WHERE the SIGKILL lands: one big segment (kill
// mid-group-commit), tiny segments (kill mid-roll — the child rolls
// constantly), and tiny segments with a compaction loop (kill
// mid-CompactStep, racing the rename/delete swaps).

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

const (
	crashChildEnv    = "KVSTORE_CRASH_CHILD"
	crashDirEnv      = "KVSTORE_CRASH_DIR"
	crashSegBytesEnv = "KVSTORE_CRASH_SEGBYTES"
	crashCompactEnv  = "KVSTORE_CRASH_COMPACT"
	crashOneLogEnv   = "KVSTORE_CRASH_ONE_LOG"
)

func TestMain(m *testing.M) {
	switch os.Getenv(crashChildEnv) {
	case "1":
		crashChildMain()
	case "commitset":
		commitSetChildMain()
	default:
		os.Exit(m.Run())
	}
}

// crashChildMain loops durable writes until the parent kills the process.
// Each iteration: PutIfAbsent("spent:<id>") with a group-commit durability
// wait, ACK the id on stdout, then Put("credit:<id>") — the same ordering
// payment.Bank.Deposit uses — plus an overwritten "hot:<g>" key so sealed
// segments accumulate garbage for the compactor. With KVSTORE_CRASH_COMPACT
// a goroutine runs CompactStep continuously, so the kill can land inside a
// segment rewrite or swap.
func crashChildMain() {
	// Suicide watchdog: never outlive a parent that forgot to kill us.
	time.AfterFunc(30*time.Second, func() { os.Exit(3) })

	opts := Options{Sync: SyncGroupCommit}
	if sb, err := strconv.ParseInt(os.Getenv(crashSegBytesEnv), 10, 64); err == nil && sb > 0 {
		opts.SegmentBytes = sb
	}
	s, err := OpenWith(os.Getenv(crashDirEnv), opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "child open: %v\n", err)
		os.Exit(2)
	}
	if os.Getenv(crashCompactEnv) == "1" {
		go func() {
			for {
				if _, err := s.CompactStep(); err != nil {
					fmt.Fprintf(os.Stderr, "child compact: %v\n", err)
					os.Exit(2)
				}
			}
		}()
	}
	var mu sync.Mutex // serializes ACK lines
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				if _, err := s.PutIfAbsent([]byte("spent:"+id), []byte{1}); err != nil {
					fmt.Fprintf(os.Stderr, "child put: %v\n", err)
					os.Exit(2)
				}
				mu.Lock()
				// One write(2) per line: pipe writes this small are
				// atomic, so the parent never reads a torn ACK.
				fmt.Fprintf(os.Stdout, "ack %s\n", id)
				mu.Unlock()
				if err := s.Put([]byte("credit:"+id), []byte{1}); err != nil {
					fmt.Fprintf(os.Stderr, "child credit: %v\n", err)
					os.Exit(2)
				}
				// Churn: the hot key is overwritten every iteration, so
				// old segments are mostly dead bytes.
				if err := s.Put([]byte(fmt.Sprintf("hot:%d", g)), []byte(id)); err != nil {
					fmt.Fprintf(os.Stderr, "child hot: %v\n", err)
					os.Exit(2)
				}
			}
		}(g)
	}
	wg.Wait()
}

// killChildMidFlight re-execs the test binary as a writer child selected
// by env, collects its ACK lines until there is a healthy sample or a
// deadline passes, SIGKILLs it (its writers never stop, so the kill lands
// with appends, rolls and — in the compaction scenario — segment swaps in
// flight) and returns every id the child managed to acknowledge.
func killChildMidFlight(t *testing.T, env ...string) []string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	acked := make([]string, 0, 512)
	sc := bufio.NewScanner(stdout)
	deadline := time.Now().Add(10 * time.Second)
	for len(acked) < 200 && time.Now().Before(deadline) && sc.Scan() {
		if id, ok := strings.CutPrefix(sc.Text(), "ack "); ok {
			acked = append(acked, id)
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Logf("kill: %v (child may have exited)", err)
	}
	// Drain remaining ACKs: every line the child managed to print was
	// preceded by a durable return, so they all count.
	for sc.Scan() {
		if id, ok := strings.CutPrefix(sc.Text(), "ack "); ok {
			acked = append(acked, id)
		}
	}
	cmd.Wait() // expected: signal: killed
	if len(acked) == 0 {
		t.Fatal("child produced no acknowledged writes before being killed")
	}
	return acked
}

func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	for _, tc := range []struct {
		name     string
		segBytes int64 // 0 = default (one big segment)
		compact  bool
	}{
		{"group_commit", 0, false},
		{"segment_roll", 2048, false},
		{"mid_compaction", 2048, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			env := []string{crashChildEnv + "=1", crashDirEnv + "=" + dir,
				crashSegBytesEnv + "=" + strconv.FormatInt(tc.segBytes, 10)}
			if tc.compact {
				env = append(env, crashCompactEnv+"=1")
			}
			acked := killChildMidFlight(t, env...)

			s, err := Open(dir)
			if err != nil {
				t.Fatalf("replay after crash: %v", err)
			}
			verifyInvariants(t, s, acked)
			if tc.segBytes > 0 {
				if st := s.Stats(); st.Segments < 2 {
					t.Errorf("scenario expected multiple segments, got %d", st.Segments)
				}
			}
			// The recovered store must be fully writable.
			if err := s.Put([]byte("post-crash"), []byte{1}); err != nil {
				t.Fatalf("store not writable after crash recovery: %v", err)
			}

			// Invariant 3: compacting whatever the crash left behind is
			// invisible — the fully-compacted log replays to the same
			// live set.
			want := snapshotMap(s)
			if err := s.Compact(); err != nil {
				t.Fatalf("compact recovered log: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after compaction: %v", err)
			}
			defer s2.Close()
			got := snapshotMap(s2)
			if len(got) != len(want) {
				t.Fatalf("compacted replay has %d keys, want %d", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Errorf("compacted replay: %q = %q, want %q", k, got[k], v)
				}
			}
		})
	}
}

func verifyInvariants(t *testing.T, s *Store, acked []string) {
	t.Helper()
	// Invariant 1: no acknowledged spent-serial is lost.
	for _, id := range acked {
		if !s.Has([]byte("spent:" + id)) {
			t.Errorf("acknowledged spent:%s lost in crash", id)
		}
	}
	// Invariant 2: a credit never survives without its spent mark.
	credits := 0
	s.PrefixScan([]byte("credit:"), func(k, v []byte) bool {
		credits++
		id := strings.TrimPrefix(string(k), "credit:")
		if !s.Has([]byte("spent:" + id)) {
			t.Errorf("credit:%s present without spent:%s (minted money)", id, id)
		}
		return true
	})
	t.Logf("crash test: %d acked writes, %d credits replayed, store len %d, %d segments",
		len(acked), credits, s.Len(), s.Stats().Segments)
}

func snapshotMap(s *Store) map[string]string {
	out := make(map[string]string)
	s.ForEach(func(k, v []byte) bool {
		out[string(k)] = string(v)
		return true
	})
	return out
}

// commitSetDirs names the ledger and goods store directories under dir:
// two stores, or with oneLog the same one, as a daemon keeps them.
func commitSetDirs(dir string, oneLog bool) (ledger, goods string) {
	if oneLog {
		return dir + "/log", dir + "/log"
	}
	return dir + "/ledger", dir + "/goods"
}

// commitSetChildMain loops purchases shaped like provider.Purchase until
// the parent kills the process: under one commit set, two spent marks go
// to the ledger store, Barrier(ctx, goods) makes them durable when the
// goods are in another store, the issuance record goes to the goods
// store, End makes that durable, and only then is the id acknowledged.
// Eight writers share the stores, so the kill lands with sets at every
// stage.
func commitSetChildMain() {
	time.AfterFunc(30*time.Second, func() { os.Exit(3) })
	die := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "child %s: %v\n", what, err)
		os.Exit(2)
	}
	ledgerDir, goodsDir := commitSetDirs(os.Getenv(crashDirEnv), os.Getenv(crashOneLogEnv) == "1")
	bank, err := OpenWith(ledgerDir, Options{Sync: SyncGroupCommit})
	if err != nil {
		die("open ledger", err)
	}
	prov := bank
	if goodsDir != ledgerDir {
		if prov, err = OpenWith(goodsDir, Options{Sync: SyncGroupCommit}); err != nil {
			die("open goods", err)
		}
	}
	var mu sync.Mutex // serializes ACK lines
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				ctx, commit := BeginCommit(context.Background())
				for _, coin := range []string{"a", "b"} {
					if _, err := bank.PutIfAbsentCtx(ctx, []byte("spent:"+id+coin), []byte{1}); err != nil {
						die("spent", err)
					}
				}
				if err := commit.Barrier(ctx, prov); err != nil {
					die("barrier", err)
				}
				if err := prov.PutCtx(ctx, []byte("issued:"+id), []byte(id)); err != nil {
					die("issued", err)
				}
				if err := commit.End(ctx); err != nil {
					die("end", err)
				}
				mu.Lock()
				fmt.Fprintf(os.Stdout, "ack %s\n", id)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
}

// TestCrashRecoveryCommitSet: after a SIGKILL every acknowledged purchase
// has both spent marks and its issuance record (the boundary wait covered
// every store), and no issuance record survives without its spent marks
// (the barrier ordered two stores; one log orders itself) — whatever
// stage each in-flight commit set had reached.
func TestCrashRecoveryCommitSet(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short mode")
	}
	t.Run("two stores", func(t *testing.T) { crashRecoveryCommitSet(t, false) })
	t.Run("one log", func(t *testing.T) { crashRecoveryCommitSet(t, true) })
}

func crashRecoveryCommitSet(t *testing.T, oneLog bool) {
	dir := t.TempDir()
	flag := "0"
	if oneLog {
		flag = "1"
	}
	acked := killChildMidFlight(t, crashChildEnv+"=commitset", crashDirEnv+"="+dir, crashOneLogEnv+"="+flag)

	ledgerDir, goodsDir := commitSetDirs(dir, oneLog)
	bank, err := Open(ledgerDir)
	if err != nil {
		t.Fatalf("replay ledger after crash: %v", err)
	}
	defer bank.Close()
	prov := bank
	if goodsDir != ledgerDir {
		if prov, err = Open(goodsDir); err != nil {
			t.Fatalf("replay goods after crash: %v", err)
		}
		defer prov.Close()
	}
	paid := func(id string) bool {
		return bank.Has([]byte("spent:"+id+"a")) && bank.Has([]byte("spent:"+id+"b"))
	}
	for _, id := range acked {
		if !paid(id) || !prov.Has([]byte("issued:"+id)) {
			t.Errorf("acknowledged purchase %s lost in crash: paid=%v issued=%v", id, paid(id), prov.Has([]byte("issued:"+id)))
		}
	}
	issued := 0
	prov.PrefixScan([]byte("issued:"), func(k, v []byte) bool {
		issued++
		if id := strings.TrimPrefix(string(k), "issued:"); !paid(id) {
			t.Errorf("issued:%s survived without its spent marks (goods before payment)", id)
		}
		return true
	})
	spent := 0
	bank.PrefixScan([]byte("spent:"), func(k, v []byte) bool { spent++; return true })
	t.Logf("commit-set crash test: %d acked, %d issued and %d spent marks replayed", len(acked), issued, spent)
}
