package provider

// Challenge nonces. The provider issues nothing per client: freshness
// comes from a public beacon every caller receives alike, uniqueness from
// randomness the client may draw itself, and single use from the set of
// nonces already presented — the only nonce state the provider keeps.

import (
	"context"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"time"
)

// nonceTTL bounds how long a challenge nonce can stay valid.
const nonceTTL = 5 * time.Minute

// nonceEpoch is how long one beacon is current. A nonce is accepted in
// the epoch of its beacon and the one after, so it lives between one and
// two epochs — 2.5 to 5 minutes, never longer than nonceTTL.
const nonceEpoch = nonceTTL / 2

// Wire sizes, in hex digits: beacon = epoch[8] ‖ MAC[16], nonce = beacon
// ‖ 128 random bits.
const (
	beaconLen = 2 * (8 + 16)
	nonceLen  = beaconLen + 2*16
)

// epochAt is the beacon epoch containing t.
func epochAt(t time.Time) int64 { return t.UnixNano() / int64(nonceEpoch) }

// beacon is epoch e's public challenge: e ‖ HMAC-SHA256(nonceKey, e)
// truncated to 128 bits, in lowercase hex. It is the same string for
// every caller, nobody can compute it before the provider's clock enters
// e (the MAC key never leaves the process), and only this process accepts
// it.
func (p *Provider) beacon(e int64) string {
	var raw [8 + sha256.Size]byte
	binary.BigEndian.PutUint64(raw[:8], uint64(e))
	mac := hmac.New(sha256.New, p.nonceKey[:])
	mac.Write([]byte("p2drm/beacon/v1"))
	mac.Write(raw[:8])
	sum := mac.Sum(raw[:8]) // epoch ‖ MAC
	return hex.EncodeToString(sum[:beaconLen/2])
}

// Beacon returns the current epoch's beacon and how long it stays
// current. Whoever holds it makes nonces of their own with NewNonce, each
// of which the provider accepts once, until the end of the following
// epoch.
func (p *Provider) Beacon() (beacon string, currentFor time.Duration) {
	now := p.cfg.Clock()
	e := epochAt(now)
	return p.beacon(e), time.Unix(0, (e+1)*int64(nonceEpoch)).Sub(now)
}

// NewNonce makes a nonce under a beacon: the beacon followed by 128 bits
// from crypto/rand in lowercase hex. Provider and client make nonces the
// same way, so a nonce says nothing about who drew it.
func NewNonce(beacon string) (string, error) {
	var buf [16]byte
	if _, err := io.ReadFull(rand.Reader, buf[:]); err != nil {
		return "", err
	}
	return beacon + hex.EncodeToString(buf[:]), nil
}

// Challenge returns a fresh nonce for proof-of-ownership flows, made
// under the current beacon. Nothing is recorded — a nonce occupies
// provider memory only once it has been used.
func (p *Provider) Challenge(ctx context.Context) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	beacon, _ := p.Beacon()
	return NewNonce(beacon)
}

// consumeNonce validates and burns a nonce: well-formed, carrying this
// provider's beacon of the current or the previous epoch, and not
// presented before. The insert into the consumed set happens under
// nonceMu, so of any number of concurrent requests presenting the same
// nonce exactly one succeeds. Sets of epochs no nonce can name any more
// are dropped whole on the way.
func (p *Provider) consumeNonce(nonce string) error {
	if len(nonce) != nonceLen || !lowerHex(nonce[beaconLen:]) {
		return ErrBadNonce
	}
	// Both beacons compared against are public by now, so a plain
	// comparison gives nothing away.
	cur := epochAt(p.cfg.Clock())
	e := cur
	if nonce[:beaconLen] != p.beacon(cur) {
		e = cur - 1
		if nonce[:beaconLen] != p.beacon(e) {
			return ErrBadNonce
		}
	}
	p.nonceMu.Lock()
	defer p.nonceMu.Unlock()
	p.sweepNoncesLocked(cur)
	used := p.nonces[e]
	if used == nil {
		used = make(map[string]struct{})
		p.nonces[e] = used
	}
	if _, replay := used[nonce]; replay {
		return ErrBadNonce
	}
	used[nonce] = struct{}{}
	return nil
}

// sweepNoncesLocked drops the consumed sets of epochs before cur-1:
// their beacons are refused outright, so nothing is left to replay.
func (p *Provider) sweepNoncesLocked(cur int64) {
	for e := range p.nonces {
		if e < cur-1 {
			delete(p.nonces, e)
		}
	}
}

// ConsumedNonces reports the size of the consumed set: the presented
// nonces whose beacon is the current or the previous epoch's.
func (p *Provider) ConsumedNonces() int {
	cur := epochAt(p.cfg.Clock())
	p.nonceMu.Lock()
	defer p.nonceMu.Unlock()
	p.sweepNoncesLocked(cur)
	n := 0
	for _, used := range p.nonces {
		n += len(used)
	}
	return n
}

// lowerHex reports whether s is lowercase hex digits only: one spelling
// per nonce, so a replay cannot hide behind a change of case.
func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
