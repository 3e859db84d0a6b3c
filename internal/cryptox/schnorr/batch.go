package schnorr

import (
	"errors"
	"fmt"
	"io"
	"math/big"
)

// BatchProofItem is one proof to check in VerifyProofBatch: a public
// key, the context the proof must be bound to, and the proof itself.
type BatchProofItem struct {
	Y       *big.Int
	Context []byte
	Proof   *Proof
}

// batchBlindBits sizes the random combiners z_i. 128 bits gives a
// cheating batch at most a 2^-128 chance of passing the combined check.
const batchBlindBits = 128

// VerifyProofBatch checks many proofs with (mostly) one
// multi-exponentiation and returns one error slot per item, nil meaning
// valid. The result for every item is identical to calling VerifyProof
// on it alone — batching is a pure speedup, never a semantics change.
//
// How: a valid proof satisfies g^s = R·y^e with e = H(g, y, R, ctx).
// Items whose proof carries a commitment R consistent with its challenge
// (and whose y and R pass the subgroup check) join the combined check
//
//	g^(Σ z_i·s_i) == Π_i R_i^{z_i} · Π_Y Y^{Σ_{i: y_i = Y} z_i·e_i mod q}
//
// with independent random 128-bit combiners z_i; reducing exponents
// mod q is sound because the subgroup checks pinned every base to the
// order-q subgroup. The second product runs over DISTINCT keys: items
// that present the same key — a bulk wallet retiring a day's licenses
// presents one pseudonym — have their z_i·e_i summed into one exponent,
// so the key is validated once and costs one full-width term instead of
// one per item. That is the same group element as the per-item product,
// every item still has its own z_i on its own R_i and s_i, and so the
// bound is unchanged: a batch with an invalid member passes with
// probability at most 2^-128, whoever chose the keys. If the combined
// check fails, each participant is re-verified alone to identify the
// culprits. Items that cannot join (nil or legacy R-less proofs,
// out-of-subgroup keys, commitments inconsistent with the challenge) are
// simply verified one at a time — note an inconsistent R with a valid
// (E,S) pair must still be accepted, exactly as VerifyProof accepts it,
// since R is advisory.
func VerifyProofBatch(g *Group, items []BatchProofItem, random io.Reader) []error {
	errs := make([]error, len(items))
	verifyOne := func(i int) {
		errs[i] = VerifyProof(g, items[i].Y, items[i].Context, items[i].Proof)
	}
	if len(items) < 2 {
		for i := range items {
			verifyOne(i)
		}
		return errs
	}

	// holder is one distinct key of the batch: ze accumulates z_i·e_i over
	// the items presenting it. A nil *holder in the map records a key that
	// was validated and refused.
	type holder struct {
		y, ze *big.Int
	}
	holders := make(map[string]*holder)

	// Partition: batchable items have a commitment that recomputes to
	// their own challenge; everything else takes the per-item path.
	batch := make([]int, 0, len(items))
	owner := make([]*holder, 0, len(items)) // owner[j] is the key of items[batch[j]]
	for i, it := range items {
		p := it.Proof
		if p == nil || p.Sig.R == nil || p.Sig.E == nil || p.Sig.S == nil ||
			it.Y == nil || it.Y.Sign() <= 0 {
			verifyOne(i)
			continue
		}
		if p.Sig.S.Sign() < 0 || p.Sig.S.Cmp(g.Q) >= 0 ||
			p.Sig.E.Sign() < 0 || p.Sig.E.Cmp(g.Q) >= 0 {
			verifyOne(i)
			continue
		}
		hk := string(it.Y.Bytes())
		h, seen := holders[hk]
		if !seen {
			if g.ValidatePublicKey(it.Y) == nil {
				h = &holder{y: it.Y}
			}
			holders[hk] = h
		}
		if h == nil || g.ValidatePublicKey(p.Sig.R) != nil {
			verifyOne(i)
			continue
		}
		msg := append([]byte(proofTag), it.Context...)
		if challenge(g, it.Y, p.Sig.R, msg).Cmp(p.Sig.E) != 0 {
			verifyOne(i)
			continue
		}
		batch = append(batch, i)
		owner = append(owner, h)
	}
	if len(batch) < 2 {
		for _, i := range batch {
			verifyOne(i)
		}
		return errs
	}

	// Combined check over the batchable subset: one R_i^{z_i} per item,
	// then one Y^{Σ z_i·e_i} per distinct key, in order of first use.
	sSum := new(big.Int)
	bases := make([]*big.Int, 0, 2*len(batch))
	exps := make([]*big.Int, 0, 2*len(batch))
	var keys []*holder
	zs := make([]byte, batchBlindBits/8)
	for j, i := range batch {
		sig := &items[i].Proof.Sig
		if _, err := io.ReadFull(random, zs); err != nil {
			// No randomness, no soundness: verify everything one at a time.
			for _, j := range batch {
				verifyOne(j)
			}
			return errs
		}
		z := new(big.Int).SetBytes(zs)
		z.Add(z, big.NewInt(1)) // z in [1, 2^128]
		t := new(big.Int).Mul(z, sig.S)
		sSum.Add(sSum, t)
		h := owner[j]
		if h.ze == nil {
			h.ze = new(big.Int)
			keys = append(keys, h)
		}
		h.ze.Add(h.ze, t.Mul(z, sig.E))
		bases = append(bases, sig.R)
		exps = append(exps, z)
	}
	for _, h := range keys {
		bases = append(bases, h.y)
		exps = append(exps, h.ze.Mod(h.ze, g.Q))
	}
	sSum.Mod(sSum, g.Q)
	lhs := g.ExpG(sSum)
	rhs, err := multiExp(g.P, bases, exps)
	if err == nil && lhs.Cmp(rhs) == 0 {
		return errs // all batchable items valid; slots already nil
	}
	// The combined check failed (or could not run): find the culprits.
	for _, i := range batch {
		verifyOne(i)
	}
	return errs
}

// multiExp computes Π bases[i]^exps[i] mod p with interleaved 4-bit
// windows (Straus): per-base 16-entry tables, one shared run of
// squarings. Exponents must be non-negative.
const multiExpWindow = 4

func multiExp(p *big.Int, bases, exps []*big.Int) (*big.Int, error) {
	if len(bases) != len(exps) {
		return nil, errors.New("schnorr: multiExp length mismatch")
	}
	maxBits := 0
	for _, e := range exps {
		if e.Sign() < 0 {
			return nil, fmt.Errorf("schnorr: multiExp negative exponent")
		}
		if e.BitLen() > maxBits {
			maxBits = e.BitLen()
		}
	}
	acc := big.NewInt(1)
	if maxBits == 0 {
		return acc, nil
	}
	tables := make([][]*big.Int, len(bases))
	for i, b := range bases {
		t := make([]*big.Int, 1<<multiExpWindow)
		t[1] = new(big.Int).Mod(b, p)
		for j := 2; j < len(t); j++ {
			t[j] = new(big.Int).Mul(t[j-1], t[1])
			t[j].Mod(t[j], p)
		}
		tables[i] = t
	}
	windows := (maxBits + multiExpWindow - 1) / multiExpWindow
	started := false
	for wi := windows - 1; wi >= 0; wi-- {
		if started {
			for s := 0; s < multiExpWindow; s++ {
				acc.Mul(acc, acc)
				acc.Mod(acc, p)
			}
		}
		for i, e := range exps {
			d := expDigit(e, wi)
			if d == 0 {
				continue
			}
			acc.Mul(acc, tables[i][d])
			acc.Mod(acc, p)
			started = true
		}
	}
	return acc, nil
}

// expDigit returns the wi-th 4-bit window of e (window 0 least
// significant).
func expDigit(e *big.Int, wi int) int {
	bit := wi * multiExpWindow
	d := 0
	for b := 0; b < multiExpWindow; b++ {
		d |= int(e.Bit(bit+b)) << b
	}
	return d
}
