package schnorr

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

// FuzzParseProof feeds arbitrary bytes to the two wire decoders. Every
// input either errors or decodes to a value that re-encodes to the same
// bytes and that VerifyProof, VerifyProofBatch and Verify judge without
// panicking — the batch giving the same verdict as the single check, and
// a valid proof beside it still passing. A trailing commitment R that is
// zero or ≥ p is refused.
func FuzzParseProof(f *testing.F) {
	g := Group768()
	k, err := NewPrivateKey(g, []byte("fuzz key"))
	if err != nil {
		f.Fatal(err)
	}
	ctx := []byte("fuzz context")
	valid, err := k.Prove(ctx, rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	n := 2 * g.scalarLen()
	extended, legacy := valid.Bytes(g), valid.Sig.Bytes(g)
	f.Add(extended)
	f.Add(legacy)
	f.Add(extended[:len(extended)-1])
	for _, r := range []*big.Int{new(big.Int), g.P, new(big.Int).Add(g.P, big.NewInt(1))} {
		f.Add(append(append([]byte(nil), legacy...), g.EncodeElement(r)...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseProof(g, data)
		if len(data) == n+g.elemLen() {
			if r := new(big.Int).SetBytes(data[n:]); (r.Sign() == 0 || r.Cmp(g.P) >= 0) && err == nil {
				t.Fatalf("commitment %v accepted", r)
			}
		}
		if err == nil {
			if !bytes.Equal(p.Bytes(g), data) {
				t.Fatalf("proof re-encodes to %x, decoded from %x", p.Bytes(g), data)
			}
			single := VerifyProof(g, k.Y, ctx, p)
			batch := VerifyProofBatch(g, []BatchProofItem{
				{Y: k.Y, Context: ctx, Proof: p},
				{Y: k.Y, Context: ctx, Proof: valid},
			}, rand.Reader)
			if (single == nil) != (batch[0] == nil) {
				t.Fatalf("batch verdict %v, single verdict %v", batch[0], single)
			}
			if batch[1] != nil {
				t.Fatalf("the valid proof beside it was refused: %v", batch[1])
			}
		}

		sig, err := ParseSignature(g, data)
		if err != nil {
			return
		}
		if !bytes.Equal(sig.Bytes(g), data) {
			t.Fatalf("signature re-encodes to %x, decoded from %x", sig.Bytes(g), data)
		}
		_ = Verify(g, k.Y, ctx, sig)
	})
}
