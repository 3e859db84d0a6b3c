package license

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"strings"
	"testing"
	"time"

	"p2drm/internal/merkle"
	"p2drm/internal/rel"
)

// signedBatch builds n licenses to p and signs them in one Sign call.
func signedBatch(t testing.TB, p *pseudonym, n int) []*Personalized {
	t.Helper()
	lics := make([]*Personalized, n)
	for i := range lics {
		lics[i] = unsignedPersonalized(t, p, testContentKey(t))
	}
	if err := Sign(testProvider(t), lics...); err != nil {
		t.Fatal(err)
	}
	return lics
}

// One Sign call is one private-key operation whatever it is given, every
// license it was given verifies through the one VerifyPersonalized, and a
// license costs 6 bytes plus 33 per level of its call's tree.
func TestSignOneRootPerCall(t *testing.T) {
	p := newPseudonym(t)
	signer := testProvider(t)
	for _, n := range []int{1, 2, 3, 5, 16, 17, MaxPerRoot} {
		before := signer.PrivateOps()
		lics := signedBatch(t, p, n)
		if got := signer.PrivateOps() - before; got != 1 {
			t.Errorf("n=%d: %d private-key operations, want 1", n, got)
		}
		depth := bits.Len(uint(n - 1)) // ⌈log₂ n⌉
		for i, l := range lics {
			if err := VerifyPersonalized(signer.Public(), l); err != nil {
				t.Fatalf("n=%d license %d: %v", n, i, err)
			}
			if !bytes.Equal(l.ProviderSig, lics[0].ProviderSig) {
				t.Errorf("n=%d license %d: a signature of its own, want the call's one", n, i)
			}
			// A promoted odd node shortens a path; nothing lengthens one.
			if len(l.Path.Siblings) > depth || (n&(n-1) == 0 && len(l.Path.Siblings) != depth) {
				t.Errorf("n=%d license %d: path of %d, want ⌈log₂ n⌉ = %d", n, i, len(l.Path.Siblings), depth)
			}
			enc := l.Marshal()
			if want := len(l.SigningBytes()) + 6 + 33*len(l.Path.Siblings) + 4 + len(l.ProviderSig); len(enc) != want {
				t.Errorf("n=%d license %d: %d bytes, want %d", n, i, len(enc), want)
			}
			back, err := UnmarshalPersonalized(enc)
			if err != nil {
				t.Fatalf("n=%d license %d: decode: %v", n, i, err)
			}
			if err := VerifyPersonalized(signer.Public(), back); err != nil {
				t.Errorf("n=%d license %d: decoded license does not verify: %v", n, i, err)
			}
			if !bytes.Equal(back.Marshal(), enc) {
				t.Errorf("n=%d license %d: re-marshal differs", n, i)
			}
		}
		if n == 1 && (len(lics[0].Path.Siblings) != 0 || lics[0].Path.LeafIndex != 0) {
			t.Errorf("a license signed alone has path %+v, want the empty one", lics[0].Path)
		}
	}
}

// Sign refuses what it cannot vouch for and, when it refuses, has touched
// no license and spent no private-key operation.
func TestSignRefusalsTouchNothing(t *testing.T) {
	p := newPseudonym(t)
	signer := testProvider(t)
	unsigned := func(n int) []*Personalized {
		lics := make([]*Personalized, n)
		for i := range lics {
			lics[i] = unsignedPersonalized(t, p, testContentKey(t))
		}
		return lics
	}
	noRights := unsigned(3)
	noRights[1].Rights = nil
	cases := map[string][]*Personalized{
		"more than a root covers":  unsigned(MaxPerRoot + 1),
		"a nil license":            append(unsigned(2), nil),
		"a license without rights": noRights,
	}
	for name, lics := range cases {
		before := signer.PrivateOps()
		if err := Sign(signer, lics...); err == nil {
			t.Errorf("%s: signed", name)
		}
		if signer.PrivateOps() != before {
			t.Errorf("%s: a private-key operation was spent on a refusal", name)
		}
		for i, l := range lics {
			if l != nil && (l.ProviderSig != nil || len(l.Path.Siblings) != 0) {
				t.Errorf("%s: license %d was touched", name, i)
			}
		}
	}
	before := signer.PrivateOps()
	if err := Sign(signer); err != nil || signer.PrivateOps() != before {
		t.Errorf("Sign of nothing: %v, %d operations; want nil and none", err, signer.PrivateOps()-before)
	}
}

// What a path must not let through: a license is under exactly the root
// its own call signed, at exactly its own place.
func TestPathForgeriesRefused(t *testing.T) {
	alice, bob := newPseudonym(t), newPseudonym(t)
	pub := testProvider(t).Public()
	call := signedBatch(t, alice, 16)
	other := signedBatch(t, alice, 16) // another call to the same pseudonym
	bobs := signedBatch(t, bob, 16)
	alone := signedBatch(t, bob, 1)[0]

	// A case mutates a decoded copy of call[i].
	cases := map[string]func(l *Personalized, i int){
		"swapped siblings": func(l *Personalized, _ int) {
			l.Path.Siblings[0], l.Path.Siblings[1] = l.Path.Siblings[1], l.Path.Siblings[0]
		},
		"flipped direction": func(l *Personalized, _ int) { l.Path.Rights[2] = !l.Path.Rights[2] },
		"dropped sibling": func(l *Personalized, _ int) {
			l.Path.Siblings, l.Path.Rights = l.Path.Siblings[:3], l.Path.Rights[:3]
		},
		"no path at all":      func(l *Personalized, _ int) { l.Path = merkle.Proof{} },
		"a neighbour's path":  func(l *Personalized, i int) { l.Path = call[(i+1)%len(call)].Path },
		"another call's path": func(l *Personalized, _ int) { l.Path = other[0].Path },
		"another call's root": func(l *Personalized, _ int) { l.ProviderSig = other[0].ProviderSig },
		"another holder's root": func(l *Personalized, _ int) {
			l.ProviderSig = bobs[0].ProviderSig
		},
		"another holder's place": func(l *Personalized, _ int) {
			l.Path, l.ProviderSig = bobs[0].Path, bobs[0].ProviderSig
		},
		"a lone license's root": func(l *Personalized, _ int) {
			l.Path, l.ProviderSig = merkle.Proof{}, alone.ProviderSig
		},
		"tampered rights": func(l *Personalized, _ int) { l.Rights = rel.MustParse("grant play;") },
		"tampered holder": func(l *Personalized, _ int) {
			l.HolderSign, l.HolderEnc = bobs[0].HolderSign, bobs[0].HolderEnc
		},
		"tampered issue time": func(l *Personalized, _ int) { l.IssuedAt = l.IssuedAt.Add(time.Second) },
		"path past the bound": func(l *Personalized, _ int) {
			for len(l.Path.Siblings) <= MaxPathLen {
				l.Path.Siblings = append(l.Path.Siblings, l.Path.Siblings[0])
				l.Path.Rights = append(l.Path.Rights, true)
			}
		},
		"position past the bound": func(l *Personalized, _ int) { l.Path.LeafIndex = MaxPerRoot },
	}
	for name, mutate := range cases {
		for _, i := range []int{0, 7} {
			m, err := UnmarshalPersonalized(call[i].Marshal())
			if err != nil {
				t.Fatal(err)
			}
			mutate(m, i)
			if err := VerifyPersonalized(pub, m); err == nil {
				t.Errorf("%s (license %d): accepted", name, i)
			}
		}
	}
	// And the unmutated ones all stand.
	for _, set := range [][]*Personalized{call, other, bobs, {alone}} {
		for i, l := range set {
			if err := VerifyPersonalized(pub, l); err != nil {
				t.Fatalf("license %d: %v", i, err)
			}
		}
	}
}

// The decoder refuses a path no Sign call can have produced — and
// trailing bytes — while it is still only reading.
func TestHostilePathEncodingsRefused(t *testing.T) {
	l := signedBatch(t, newPseudonym(t), 16)[3]
	enc := l.Marshal()
	pathAt := len(l.SigningBytes())
	if got := int(binary.BigEndian.Uint16(enc[pathAt+4:])); got != 4 {
		t.Fatalf("path header says %d siblings, want 4: the test no longer knows the layout", got)
	}
	sibling := make([]byte, 33)
	splice := func(at int, b ...byte) []byte {
		return append(append(append([]byte(nil), enc[:at]...), b...), enc[at:]...)
	}
	withCount := func(b []byte, n int) []byte {
		binary.BigEndian.PutUint16(b[pathAt+4:], uint16(n))
		return b
	}
	nine := withCount(splice(pathAt+6, bytes.Repeat(sibling, 5)...), 9)
	eight := withCount(splice(pathAt+6, bytes.Repeat(sibling, 4)...), 8)
	if _, err := UnmarshalPersonalized(eight); err != nil {
		t.Errorf("a path of %d siblings refused: %v", MaxPathLen, err)
	}
	badDir := append([]byte(nil), enc...)
	badDir[pathAt+6] = 2
	farLeaf := append([]byte(nil), enc...)
	binary.BigEndian.PutUint32(farLeaf[pathAt:], MaxPerRoot)
	cases := map[string][]byte{
		"nine siblings":             nine,
		"direction byte 2":          badDir,
		"position 256":              farLeaf,
		"trailing byte":             append(append([]byte(nil), enc...), 0),
		"count beyond the input":    withCount(append([]byte(nil), enc...), 8),
		"65535 siblings":            withCount(append([]byte(nil), enc...), 0xffff),
		"cut inside the path":       enc[:pathAt+6+20],
		"cut before the signature":  enc[:pathAt+6+4*33],
		"version 1 (no path field)": append([]byte{1}, enc[1:]...),
	}
	for name, data := range cases {
		if _, err := UnmarshalPersonalized(data); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// The provider key signs two kinds of statement, license roots and
// revocation filters. A root statement starts with a tag of its own, so no
// signature made for one kind verifies as another: not a signature over
// the license's own encoding (what version 1 signed), not one over the
// bare root, not one over the root under another statement's tag.
func TestRootStatementHasItsOwnDomain(t *testing.T) {
	signer := testProvider(t)
	l := signedBatch(t, newPseudonym(t), 1)[0]
	root := merkle.LeafHash(l.SigningBytes())
	stmt := rootStatement(root)
	const tag = "p2drm/license-root/v1|"
	if !bytes.HasPrefix(stmt, []byte(tag)) || !bytes.Equal(stmt[len(tag):], root[:]) {
		t.Fatalf("root statement = %q, want the tag and the root", stmt)
	}
	others := []string{
		"p2drm/revfilter/v2",                               // revocation.filterSigningBytes
		string([]byte{encVersion, kindPersonalized}),       // a license leaf
		string([]byte{encVersion, kindAnonymous}),          // an anonymous license
		"p2drm/fdh/v1", "p2drm/keyid/v1", "p2drm/denom/v1", // hashed, never signed; kept apart anyway
	}
	for _, o := range others {
		if strings.HasPrefix(tag, o) || strings.HasPrefix(o, tag) {
			t.Errorf("tag %q and %q: one is a prefix of the other", tag, o)
		}
	}
	foreign := map[string][]byte{
		"the license encoding itself": l.SigningBytes(),
		"the bare root":               root[:],
		"the root as a snapshot":      append([]byte("p2drm/revsnapshot/v1"), root[:]...),
		"the root as a filter":        append([]byte("p2drm/revfilter/v2"), root[:]...),
		"the root as a certificate":   append([]byte("p2drm/device-cert/v1|"), root[:]...),
	}
	for name, msg := range foreign {
		sig, err := signer.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := UnmarshalPersonalized(l.Marshal())
		m.ProviderSig = sig
		if err := VerifyPersonalized(signer.Public(), m); err == nil {
			t.Errorf("a signature over %s verifies a license", name)
		}
	}
}

// BenchmarkT1_LicenseSignBatch16 is what a 16-license batch call pays the
// provider key: leaves, tree, paths, one signature.
func BenchmarkT1_LicenseSignBatch16(b *testing.B) {
	p := newPseudonym(b)
	signer := testProvider(b)
	lics := make([]*Personalized, 16)
	for i := range lics {
		lics[i] = unsignedPersonalized(b, p, testContentKey(b))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Sign(signer, lics...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT1_LicenseVerifyPath is what a device or client pays for a
// license out of a 16-license call: four hashes more than one signed
// alone, then the same public-key operation.
func BenchmarkT1_LicenseVerifyPath(b *testing.B) {
	l := signedBatch(b, newPseudonym(b), 16)[5]
	pub := testProvider(b).Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyPersonalized(pub, l); err != nil {
			b.Fatal(err)
		}
	}
}
