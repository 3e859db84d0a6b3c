package dlkem

import (
	"crypto/rand"
	"math/big"
	"testing"

	"p2drm/internal/cryptox/schnorr"
)

var benchSink []byte

// BenchmarkT1_KEMShare is where docs/crypto.md's sender figures come
// from (`make bench-smoke` runs it once; for figures:
// go test -run '^$' -bench T1_KEMShare -benchtime 200x ./internal/cryptox/dlkem).
// cached is a wrap to a recipient the sender has seen, computed one to a
// recipient it has not, oneshot the fresh-ephemeral Encap without a nonce
// pool — what a wrap cost before the sender, g^k included, on the
// generator table the daemon builds at boot.
func BenchmarkT1_KEMShare(b *testing.B) {
	for _, g := range []*schnorr.Group{schnorr.Group768(), schnorr.Group2048()} {
		g.Precompute()
		bits := g.Name[len("modp"):]
		keys := make([]*big.Int, 3)
		for i := range keys {
			keys[i] = randomResidue(b, g)
		}
		b.Run("cached/"+bits, func(b *testing.B) {
			s := newTestSender(b, g)
			if _, _, err := s.Encap(keys[0]); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, benchSink, _ = s.Encap(keys[0])
			}
		})
		b.Run("computed/"+bits, func(b *testing.B) {
			s := newTestSender(b, g)
			s.gen = 1 // two one-key generations: the third key back is always a miss
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, benchSink, _ = s.Encap(keys[i%len(keys)])
			}
			b.StopTimer()
			if cached, _ := s.Stats(); cached != 0 {
				b.Fatalf("%d of the timed encapsulations were cache hits", cached)
			}
		})
		b.Run("oneshot/"+bits, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, benchSink, _ = Encap(g, keys[0], rand.Reader)
			}
		})
	}
}
