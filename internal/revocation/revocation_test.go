package revocation

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"sync"
	"testing"
	"time"

	"p2drm/internal/cryptox/rsablind"
	"p2drm/internal/kvstore"
	"p2drm/internal/license"
)

var (
	sgOnce sync.Once
	signer *rsablind.Signer
)

func testSigner(tb testing.TB) *rsablind.Signer {
	tb.Helper()
	sgOnce.Do(func() {
		key, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
		signer, err = rsablind.NewSigner(key)
		if err != nil {
			panic(err)
		}
	})
	return signer
}

func memList(tb testing.TB) *List {
	tb.Helper()
	st, err := kvstore.Open("")
	if err != nil {
		tb.Fatal(err)
	}
	l, err := Open(st, 1000)
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

func newSerial(t *testing.T) license.Serial {
	t.Helper()
	s, err := license.NewSerial()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAddContains(t *testing.T) {
	l := memList(t)
	s := newSerial(t)
	if l.Contains(s) {
		t.Error("fresh serial already revoked")
	}
	if err := l.Add(s); err != nil {
		t.Fatal(err)
	}
	if !l.Contains(s) {
		t.Error("revoked serial not found")
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d", l.Len())
	}
	// Idempotent.
	if err := l.Add(s); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Errorf("Len after re-add = %d", l.Len())
	}
}

func TestAddBatch(t *testing.T) {
	l := memList(t)
	serials := make([]license.Serial, 10)
	for i := range serials {
		serials[i] = newSerial(t)
	}
	// Pre-revoke one to exercise dedup.
	l.Add(serials[3])
	if err := l.AddBatch(serials); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 10 {
		t.Errorf("Len = %d, want 10", l.Len())
	}
	for _, s := range serials {
		if !l.Contains(s) {
			t.Errorf("serial %s missing", s)
		}
	}
	if err := l.AddBatch(nil); err != nil {
		t.Error(err)
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := kvstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(st, 100)
	if err != nil {
		t.Fatal(err)
	}
	serials := make([]license.Serial, 5)
	for i := range serials {
		serials[i] = newSerial(t)
		l.Add(serials[i])
	}
	st.Close()

	st2, err := kvstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	l2, err := Open(st2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 5 {
		t.Fatalf("Len after reopen = %d", l2.Len())
	}
	for _, s := range serials {
		if !l2.Contains(s) {
			t.Errorf("serial %s lost across reopen", s)
		}
	}
}

func TestSignedFilterRoundtrip(t *testing.T) {
	l := memList(t)
	sgn := testSigner(t)
	revoked := newSerial(t)
	l.Add(revoked)
	now := time.Date(2004, 9, 1, 0, 0, 0, 0, time.UTC)

	sf, err := l.ExportFilter(sgn, now)
	if err != nil {
		t.Fatal(err)
	}
	f, err := VerifyFilter(sgn.Public(), sf)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Contains(revoked[:]) {
		t.Error("filter missing revoked serial")
	}
	clean := newSerial(t)
	if f.Contains(clean[:]) {
		t.Log("false positive on fresh serial (possible, at 2⁻¹⁴)")
	}
}

func TestSignedFilterTamperRejected(t *testing.T) {
	l := memList(t)
	sgn := testSigner(t)
	l.Add(newSerial(t))
	sf, _ := l.ExportFilter(sgn, time.Now())

	bad := *sf
	bad.Filter = append([]byte(nil), sf.Filter...)
	bad.Filter[len(bad.Filter)-1] ^= 0xFF
	if _, err := VerifyFilter(sgn.Public(), &bad); err == nil {
		t.Error("tampered filter accepted")
	}
	bad2 := *sf
	bad2.IssuedAt = sf.IssuedAt.Add(time.Hour)
	if _, err := VerifyFilter(sgn.Public(), &bad2); err == nil {
		t.Error("re-dated filter accepted (rollback protection broken)")
	}
	if _, err := VerifyFilter(sgn.Public(), nil); err == nil {
		t.Error("nil filter accepted")
	}
}

func TestNoFalseNegativesAtScale(t *testing.T) {
	l := memList(t)
	var serials []license.Serial
	for i := 0; i < 2000; i++ {
		s := newSerial(t)
		serials = append(serials, s)
	}
	if err := l.AddBatch(serials); err != nil {
		t.Fatal(err)
	}
	for i, s := range serials {
		if !l.Contains(s) {
			t.Fatalf("false negative at %d — double redemption possible", i)
		}
	}
	// Exact, not the filter: fresh serials must be reported clean.
	for i := 0; i < 500; i++ {
		if l.Contains(newSerial(t)) {
			t.Fatal("Contains returned true for never-revoked serial (fallback to exact store failed)")
		}
	}
}

// durableList opens a list on a group-commit store whose commit leader
// sleeps interval before each fsync, so "still waiting" is a window a
// test can stand in.
func durableList(t *testing.T, interval time.Duration) (*List, *kvstore.Store) {
	t.Helper()
	st, err := kvstore.OpenWith(t.TempDir(), kvstore.Options{Sync: kvstore.SyncGroupCommit, CommitInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	l, err := Open(st, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return l, st
}

func undurable(st *kvstore.Store) int64 {
	_, off := st.DurableOffset()
	return st.Stats().LoggedBytes - off
}

// TestContainsDoesNotWaitForFsync: the list lock is not held across the
// durability wait, so Contains answers — true, the serial is in the index
// — while the TryAdd that revoked it is still parked on its fsync.
func TestContainsDoesNotWaitForFsync(t *testing.T) {
	l, _ := durableList(t, 400*time.Millisecond)
	s := newSerial(t)
	done := make(chan error, 1)
	go func() {
		_, err := l.TryAdd(s)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); !l.Contains(s); {
		if time.Now().After(deadline) {
			t.Fatal("revocation never became visible")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("Contains only answered once TryAdd had returned (err %v): the lookup queued behind the fsync", err)
	default:
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestTryAddCtxCommitSet: under a commit set TryAddCtx leaves the wait to
// the set's owner, and the loser of the gate — with or without a set —
// does not answer before the revocation it lost to is durable. AddBatch
// gives the same cover to the serials it skips as already present.
func TestTryAddCtxCommitSet(t *testing.T) {
	l, st := durableList(t, 10*time.Millisecond)
	for i, loserHasSet := range []bool{false, true} {
		s := newSerial(t)
		winCtx, _ := kvstore.BeginCommit(context.Background())
		if fresh, err := l.TryAddCtx(winCtx, s); err != nil || !fresh {
			t.Fatalf("winner: fresh=%v err=%v", fresh, err)
		}
		if undurable(st) == 0 {
			t.Fatal("TryAddCtx under a commit set waited for its own fsync")
		}
		if !l.Contains(s) || l.Len() != i+1 {
			t.Fatalf("appended revocation not visible: contains=%v len=%d", l.Contains(s), l.Len())
		}
		loseCtx, loser := context.Background(), kvstore.Commit{}
		if loserHasSet {
			loseCtx, loser = kvstore.BeginCommit(loseCtx)
		}
		if fresh, err := l.TryAddCtx(loseCtx, s); err != nil || fresh {
			t.Fatalf("loser: fresh=%v err=%v", fresh, err)
		}
		if loserHasSet {
			if undurable(st) == 0 {
				t.Error("loser with a commit set waited inside TryAddCtx")
			}
			if err := loser.End(loseCtx); err != nil {
				t.Fatal(err)
			}
		}
		if undurable(st) != 0 {
			t.Errorf("loserHasSet=%v: gate lost with the winner's revocation not durable", loserHasSet)
		}
	}

	present, fresh := newSerial(t), newSerial(t)
	winCtx, _ := kvstore.BeginCommit(context.Background())
	if _, err := l.TryAddCtx(winCtx, present); err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][]license.Serial{{present}, {present, fresh}} {
		if err := l.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		if undurable(st) != 0 {
			t.Errorf("AddBatch of %d returned with a serial it reports revoked not durable", len(batch))
		}
	}
	if !l.Contains(fresh) || l.Len() != 4 {
		t.Errorf("after AddBatch: contains=%v len=%d, want true, 4", l.Contains(fresh), l.Len())
	}
}
