// Package precomp provides the shared precomputation layer for the
// public-key hot paths: fixed-base exponentiation tables for the group
// generators and background-filled pools of expensive-to-make values
// (Schnorr nonces, RSA blinding factors).
//
// Both pieces follow the same rule: they may only ever make the fast
// path faster, never change results. A table computes exactly
// base^x mod p; a pool hands out values drawn from exactly the
// distribution the inline path would have drawn from, each value exactly
// once. Callers always keep an inline fallback for when no table is
// built yet or a pool is drained. When to build a table is the owner's
// decision: schnorr builds a group's once the group has served enough
// exponentiations to repay the build.
package precomp

import "math/big"

// tableWindow is the radix-2^w window width. Eight bits makes every
// radix digit one exponent byte, cutting the call-time work to one
// modular multiplication per exponent byte — about a third of what
// math/big's square-and-multiply pays at our group sizes — in exchange
// for 256-entry rows that cost a one-time build.
const tableWindow = 8

// Table is a fixed-base windowed exponentiation table for computing
// base^x mod p without any squarings at call time:
//
//	rows[i][j] = base^(j << (w*i)) mod p
//
// so base^x = Π_i rows[i][digit_i(x)] where digit_i is the i-th radix-2^w
// digit of x. The build costs tens of ms and ~7 MB of heap for a 768-bit
// group, a few hundred ms and ~41 MB for 2048 bits, so it pays only a caller
// that goes on to compute about a hundred exponentiations; once built
// the table is shared read-only, and Exp is safe for concurrent use.
//
// The table lookup is indexed by exponent digit, so the memory-access
// pattern depends on the exponent. Callers exponentiating secrets MUST
// blind the exponent first (x' = x + r·q for a fresh random r, valid
// whenever base has order q), which randomizes every digit per call;
// schnorr's ExpG does exactly that. The same blinding is what makes the
// math/big fallback path safe, so the two paths carry identical
// side-channel posture.
type Table struct {
	base, p *big.Int
	maxBits int
	// entries[i][j] = base^(j << (w*i)) mod p, read-only after build.
	// entries[i][0] is nil: a zero digit contributes nothing and is
	// skipped (the digit value is blinded, so the skip leaks nothing
	// about the caller's secret).
	entries [][]*big.Int
}

// NewTable builds the table covering exponents up to maxBits bits.
// Exponents wider than maxBits fall back to math/big at call time.
func NewTable(base, p *big.Int, maxBits int) *Table {
	rows := (maxBits + tableWindow - 1) / tableWindow
	t := &Table{
		base:    new(big.Int).Set(base),
		p:       new(big.Int).Set(p),
		maxBits: rows * tableWindow,
		entries: make([][]*big.Int, rows),
	}
	rowBase := new(big.Int).Set(base) // base^(2^(w*i)) for the current row
	for i := 0; i < rows; i++ {
		row := make([]*big.Int, 1<<tableWindow)
		for j := 1; j < 1<<tableWindow; j++ {
			e := new(big.Int)
			if j == 1 {
				e.Set(rowBase)
			} else {
				e.Mul(row[j-1], rowBase)
				e.Mod(e, t.p)
			}
			row[j] = e
		}
		t.entries[i] = row
		for s := 0; s < tableWindow; s++ {
			rowBase.Mul(rowBase, rowBase)
			rowBase.Mod(rowBase, t.p)
		}
	}
	return t
}

// Exp computes base^x mod p. Negative or over-wide exponents fall back
// to math/big's Exp so the table is always a drop-in replacement.
func (t *Table) Exp(x *big.Int) *big.Int {
	if x.Sign() < 0 || x.BitLen() > t.maxBits {
		return new(big.Int).Exp(t.base, x, t.p)
	}
	xb := make([]byte, (t.maxBits+7)/8)
	x.FillBytes(xb)
	var acc *big.Int
	for i := range t.entries {
		d := digit(xb, i)
		if d == 0 {
			continue
		}
		e := t.entries[i][d]
		if acc == nil {
			acc = new(big.Int).Set(e)
			continue
		}
		acc.Mul(acc, e)
		acc.Mod(acc, t.p)
	}
	if acc == nil {
		return big.NewInt(1) // x == 0
	}
	return acc
}

// digit extracts the i-th radix-2^w digit of the big-endian buffer
// (digit 0 = least significant window). With w == 8 that is simply the
// i-th byte from the end.
func digit(be []byte, i int) int {
	idx := len(be) - 1 - i
	if idx < 0 {
		return 0
	}
	return int(be[idx])
}
