package license

import (
	"bytes"
	"testing"
	"time"

	"p2drm/internal/rel"
)

// fuzzSeedLicenses builds structurally valid licenses so the fuzzer starts
// from well-formed encodings of every kind.
func fuzzSeedLicenses(f *testing.F) {
	f.Helper()
	rights := rel.MustParse("grant play count 3; grant transfer; delegate allow;")
	var serial Serial
	copy(serial[:], bytes.Repeat([]byte{7}, SerialLen))
	pers := &Personalized{
		Serial:      serial,
		ContentID:   "song-1",
		HolderSign:  []byte{1, 2, 3},
		HolderEnc:   []byte{4, 5, 6},
		Rights:      rights,
		KeyWrap:     KeyWrap{KEM: []byte{9}, SealedKey: []byte{8}},
		IssuedAt:    time.Unix(1094040000, 0).UTC(),
		ProviderSig: []byte{0xAA, 0xBB},
	}
	f.Add(pers.Marshal())
	anon := &Anonymous{Serial: serial, Sig: []byte{0xCC}}
	copy(anon.Denom[:], bytes.Repeat([]byte{3}, len(anon.Denom)))
	f.Add(anon.Marshal())
	f.Add([]byte{})
	f.Add([]byte{encVersion, kindPersonalized})
	// Licenses with real paths: signed alone (empty path), a full 16-leaf
	// tree (four siblings), and odd-sized trees whose promoted nodes make
	// paths of different lengths under one root.
	for _, n := range []int{1, 16, 3, 5} {
		lics := make([]*Personalized, n)
		for i := range lics {
			l := *pers
			l.Serial[0] = byte(i)
			lics[i] = &l
		}
		if err := Sign(testProvider(f), lics...); err != nil {
			f.Fatal(err)
		}
		f.Add(lics[0].Marshal())
		if n > 1 {
			f.Add(lics[n-1].Marshal())
		}
	}
}

// FuzzLicenseCodec: decoding arbitrary bytes must never panic; anything
// that decodes must re-encode to a decoding fixed point (canonical bytes
// are what providers sign, so Marshal∘Unmarshal must be idempotent — a
// drifting re-encoding would be a signature-forgery surface). Anonymous
// licenses carry no free-text fields, so for them the round trip must be
// byte-exact.
func FuzzLicenseCodec(f *testing.F) {
	fuzzSeedLicenses(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if l, err := UnmarshalPersonalized(data); err == nil {
			enc := l.Marshal()
			l2, err := UnmarshalPersonalized(enc)
			if err != nil {
				t.Fatalf("personalized re-decode failed: %v", err)
			}
			if !bytes.Equal(l2.Marshal(), enc) {
				t.Fatal("personalized Marshal is not a fixed point")
			}
		}
		if a, err := UnmarshalAnonymous(data); err == nil {
			if !bytes.Equal(a.Marshal(), data) {
				t.Fatal("anonymous round trip not byte-exact")
			}
		}
	})
}
