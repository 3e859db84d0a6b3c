package provider

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2drm/internal/cryptox/rsablind"
)

// testClock is an injectable, movable Config.Clock.
type testClock struct{ ns atomic.Int64 }

func (c *testClock) now() time.Time          { return time.Unix(0, c.ns.Load()).UTC() }
func (c *testClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// clockedWorld is newWorld on a movable clock that starts at the first
// instant of a beacon epoch.
func clockedWorld(t *testing.T) (*world, *testClock) {
	t.Helper()
	w := newWorld(t)
	clk := &testClock{}
	clk.ns.Store(epochAt(fixedNow) * int64(nonceEpoch))
	w.prov.cfg.Clock = clk.now
	return w, clk
}

// TestChallengeLeavesNoState pins the nonce store audit: handing out
// challenges costs the provider no memory, whoever asks and however often.
func TestChallengeLeavesNoState(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	for i := 0; i < 100_000; i++ {
		if _, err := w.prov.Challenge(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := w.prov.ConsumedNonces(); n != 0 || len(w.prov.nonces) != 0 {
		t.Fatalf("100000 challenges left %d consumed nonces in %d epoch sets, want none", n, len(w.prov.nonces))
	}
}

// TestNonceLivesItsEpochAndTheNext walks one beacon across three epochs:
// its nonces are good in their own epoch and the next — so for at least
// one epoch and never longer than nonceTTL — and dead after that.
func TestNonceLivesItsEpochAndTheNext(t *testing.T) {
	w, clk := clockedWorld(t)
	ctx := context.Background()
	draw := func() string {
		t.Helper()
		n, err := w.prov.Challenge(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	own, next, late := draw(), draw(), draw()
	beacon, currentFor := w.prov.Beacon()
	if !strings.HasPrefix(own, beacon) || currentFor != nonceEpoch {
		t.Fatalf("at an epoch's first instant: beacon %q (nonce %q) current for %v, want %v", beacon, own, currentFor, nonceEpoch)
	}
	if err := w.prov.consumeNonce(own); err != nil {
		t.Errorf("nonce in its own epoch: %v", err)
	}
	clk.advance(nonceEpoch)
	if b, _ := w.prov.Beacon(); b == beacon {
		t.Error("beacon did not change with the epoch")
	}
	clk.advance(nonceEpoch - time.Nanosecond) // last instant of the next epoch
	if err := w.prov.consumeNonce(next); err != nil {
		t.Errorf("nonce at the end of the next epoch (age %v): %v", 2*nonceEpoch-time.Nanosecond, err)
	}
	if err := w.prov.consumeNonce(own); !errors.Is(err, ErrBadNonce) {
		t.Errorf("replay one epoch later: %v, want ErrBadNonce", err)
	}
	clk.advance(time.Nanosecond) // age == nonceTTL
	if err := w.prov.consumeNonce(late); !errors.Is(err, ErrBadNonce) {
		t.Errorf("nonce two epochs on: %v, want ErrBadNonce", err)
	}
	if 2*nonceEpoch > nonceTTL {
		t.Errorf("two epochs (%v) outlive nonceTTL (%v)", 2*nonceEpoch, nonceTTL)
	}
}

// TestConsumedSetIsSweptByEpoch: the consumed set holds used nonces of
// two epochs at most, and an epoch's set goes when its beacon is refused.
func TestConsumedSetIsSweptByEpoch(t *testing.T) {
	w, clk := clockedWorld(t)
	ctx := context.Background()
	use := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			n, _ := w.prov.Challenge(ctx)
			if err := w.prov.consumeNonce(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	use(10)
	clk.advance(nonceEpoch)
	use(5)
	if n := w.prov.ConsumedNonces(); n != 15 {
		t.Errorf("two epochs in: %d consumed, want 15", n)
	}
	clk.advance(nonceEpoch)
	use(1)
	if n, sets := w.prov.ConsumedNonces(), len(w.prov.nonces); n != 6 || sets != 2 {
		t.Errorf("three epochs in: %d consumed in %d sets, want 6 in 2", n, sets)
	}
	clk.advance(2 * nonceEpoch)
	if n := w.prov.ConsumedNonces(); n != 0 || len(w.prov.nonces) != 0 {
		t.Errorf("idle for two epochs: %d consumed in %d sets, want none", n, len(w.prov.nonces))
	}
}

// TestMalformedAndForeignNoncesRefused: every way a nonce can be wrong
// is ErrBadNonce, and a refused string never enters the consumed set.
func TestMalformedAndForeignNoncesRefused(t *testing.T) {
	w := newWorld(t)
	other := newWorld(t) // same clock, another process's MAC key
	ctx := context.Background()
	good, _ := w.prov.Challenge(ctx)
	foreign, _ := other.prov.Challenge(ctx)
	beacon, rnd := good[:beaconLen], good[beaconLen:]
	flip := func(s string, i int) string {
		c := byte('0')
		if s[i] == '0' {
			c = '1'
		}
		return s[:i] + string(c) + s[i+1:]
	}
	bad := map[string]string{
		"empty":              "",
		"legacy 128-bit":     "00112233445566778899aabbccddeeff",
		"foreign process":    foreign,
		"forged MAC":         flip(good, beaconLen-1),
		"forged epoch":       flip(good, 15),
		"short random part":  good[:nonceLen-1],
		"long random part":   good + "0",
		"non-hex random":     beacon + rnd[:31] + "g",
		"upper-case random":  beacon + strings.ToUpper(rnd[:31]) + "A",
		"upper-case beacon":  strings.ToUpper(beacon) + rnd,
		"random part only":   rnd,
		"beacon of the next": w.prov.beacon(epochAt(fixedNow)+1) + rnd,
	}
	for name, nonce := range bad {
		if err := w.prov.consumeNonce(nonce); !errors.Is(err, ErrBadNonce) {
			t.Errorf("%s: %v, want ErrBadNonce", name, err)
		}
	}
	if n := w.prov.ConsumedNonces(); n != 0 {
		t.Errorf("refused nonces left %d entries in the consumed set", n)
	}
	if err := w.prov.consumeNonce(good); err != nil {
		t.Fatalf("well-formed nonce: %v", err)
	}
	if err := w.prov.consumeNonce(good); !errors.Is(err, ErrBadNonce) {
		t.Errorf("second presentation: %v, want ErrBadNonce", err)
	}
	// A nonce the client drew itself under the public beacon is as good
	// as one the provider drew.
	own, err := NewNonce(beacon)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.prov.consumeNonce(own); err != nil {
		t.Errorf("client-made nonce: %v", err)
	}
}

// TestConcurrentNoncePresentationSingleWinner: 32 goroutines, one nonce.
func TestConcurrentNoncePresentationSingleWinner(t *testing.T) {
	w := newWorld(t)
	nonce, _ := w.prov.Challenge(context.Background())
	var (
		wins  atomic.Int32
		start = make(chan struct{})
		wg    sync.WaitGroup
	)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch err := w.prov.consumeNonce(nonce); {
			case err == nil:
				wins.Add(1)
			case !errors.Is(err, ErrBadNonce):
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("nonce accepted %d times, want exactly 1", wins.Load())
	}
}

// TestStaleKeyIDRefusedBeforeNonceAndLicence: an exchange naming a
// denomination key the provider does not sign with costs the holder
// nothing — same nonce, same proof, same licence go through once the key
// id is right.
func TestStaleKeyIDRefusedBeforeNonceAndLicence(t *testing.T) {
	w := newWorld(t)
	lic := w.buy(t, 0)
	it := w.exchangeItem(t, lic, 0)
	ctx := context.Background()
	consumed := w.prov.ConsumedNonces() // the registration's

	it.KeyID = "0123456789abcdef"
	if res := w.prov.ExchangeBatch(ctx, []ExchangeItem{it}); !errors.Is(res[0].Err, rsablind.ErrStaleKey) {
		t.Fatalf("stale key id: %v, want ErrStaleKey", res[0].Err)
	}
	for i, res := range w.prov.ExchangeBatch(ctx, []ExchangeItem{it, it}) {
		if !errors.Is(res.Err, rsablind.ErrStaleKey) {
			t.Fatalf("stale key id in slot %d of a batch: %v, want ErrStaleKey", i, res.Err)
		}
	}
	if n := w.prov.ConsumedNonces(); n != consumed {
		t.Errorf("refusals consumed %d nonces", n-consumed)
	}
	if w.prov.Revoked(lic.Serial) {
		t.Error("refusal retired the licence")
	}
	for _, e := range w.journal.Events() {
		if e.Type == EvExchange {
			t.Error("refusal reached the journal as an exchange")
		}
	}
	pub, _, err := w.prov.DenomPublic(lic.ContentID)
	if err != nil {
		t.Fatal(err)
	}
	it.KeyID = rsablind.KeyID(pub)
	if res := w.prov.ExchangeBatch(ctx, []ExchangeItem{it}); res[0].Err != nil {
		t.Fatalf("same nonce, proof and licence under the right key id: %v", res[0].Err)
	}
}

// FuzzConsumeNonce: whatever string arrives, consumeNonce does not
// panic, accepts it only if it is a well-formed nonce under this
// provider's current beacon, and never accepts it twice.
func FuzzConsumeNonce(f *testing.F) {
	pk, _ := testKeys()
	p := &Provider{nonces: make(map[int64]map[string]struct{})}
	p.cfg.Clock = func() time.Time { return fixedNow }
	copy(p.nonceKey[:], pk.D.Bytes())
	beacon, _ := p.Beacon()
	good, _ := NewNonce(beacon)
	f.Add(good)
	f.Add(beacon)
	f.Add(good + "00")
	f.Add(strings.ToUpper(good))
	f.Add(p.beacon(epochAt(fixedNow)-1) + good[beaconLen:])
	f.Add(p.beacon(epochAt(fixedNow)+1) + good[beaconLen:])
	f.Add("")
	f.Fuzz(func(t *testing.T, nonce string) {
		before := p.ConsumedNonces()
		err := p.consumeNonce(nonce)
		if err == nil {
			wellFormed := len(nonce) == nonceLen && lowerHex(nonce) &&
				(strings.HasPrefix(nonce, beacon) || strings.HasPrefix(nonce, p.beacon(epochAt(fixedNow)-1)))
			if !wellFormed {
				t.Fatalf("accepted %q", nonce)
			}
			if p.ConsumedNonces() != before+1 {
				t.Fatalf("accepted %q without recording it", nonce)
			}
		} else if !errors.Is(err, ErrBadNonce) || p.ConsumedNonces() != before {
			t.Fatalf("refused %q with %v, consumed set %d -> %d", nonce, err, before, p.ConsumedNonces())
		}
		if err := p.consumeNonce(nonce); !errors.Is(err, ErrBadNonce) {
			t.Fatalf("second presentation of %q: %v", nonce, err)
		}
	})
}
