// Package rel implements the P2DRM rights expression language: the small
// policy language embedded in every license that tells a compliant device
// what the holder may do with the content.
//
// The 2004 paper assumes an abstract "rights" blob inside licenses
// (the commercial systems of the era used ODRL or XrML); this package is
// the reproduction's concrete instantiation. It is deliberately small but
// real: a grammar with a lexer, parser and evaluator, plus the
// *intersection* semantics needed for star (delegation) licenses where a
// user may further restrict — never widen — the rights they pass on.
//
// Grammar (statements end with ';', comments start with '#'):
//
//	grant <action> [count N];          # play, copy, transfer, export, ...
//	valid from "RFC3339" until "RFC3339";
//	valid until "RFC3339";
//	device class "audio" [, "video"];  # device must match one listed class
//	region "EU" [, "US"];              # playback region allowlist
//	require domain;                    # only inside an authorized domain
//	delegate allow | delegate deny;    # may the holder issue star licenses
//
// Example:
//
//	grant play count 10;
//	grant transfer;
//	valid until "2005-01-01T00:00:00Z";
//	device class "audio";
//	region "EU", "US";
//	delegate allow;
package rel

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Action names a right a license can grant. Free-form identifiers are
// accepted; the constants cover the actions used by the protocols.
type Action string

// Canonical actions.
const (
	ActPlay     Action = "play"
	ActCopy     Action = "copy"
	ActTransfer Action = "transfer"
	ActExport   Action = "export"
	ActPrint    Action = "print"
)

// Unlimited marks a grant with no usage count cap.
const Unlimited = int64(-1)

// Grant is one granted action with an optional remaining-use cap.
type Grant struct {
	Action Action
	// Count is the total allowed uses, or Unlimited.
	Count int64
}

// Rights is the compiled, canonical form of a rights expression. The zero
// value grants nothing and never validates; build with Parse (or a
// literal, checked with Validate).
type Rights struct {
	Grants map[Action]Grant
	// NotBefore/NotAfter bound validity; zero time means unbounded.
	NotBefore time.Time
	NotAfter  time.Time
	// DeviceClasses, if non-empty, is an allowlist of device classes.
	DeviceClasses []string
	// Regions, if non-empty, is an allowlist of playback regions.
	Regions []string
	// RequireDomain restricts use to devices inside an authorized domain.
	RequireDomain bool
	// DelegationAllowed permits the holder to issue star licenses.
	DelegationAllowed bool
}

// Context carries the facts a device knows at evaluation time.
type Context struct {
	Now         time.Time
	DeviceClass string
	Region      string
	InDomain    bool
	// Used maps action → uses already consumed (from device secure state).
	Used map[Action]int64
}

// Decision is the outcome of evaluating one action against rights.
type Decision struct {
	Allowed bool
	// Reason explains a denial (empty when allowed).
	Reason string
	// Metered reports whether the action consumes a use count; the device
	// must persist the increment before rendering.
	Metered bool
	// Remaining is the remaining use count after this use (Unlimited when
	// uncapped). Only meaningful when Allowed.
	Remaining int64
}

// Evaluate decides whether action is permitted under r in ctx.
func (r *Rights) Evaluate(action Action, ctx Context) Decision {
	deny := func(format string, args ...interface{}) Decision {
		return Decision{Allowed: false, Reason: fmt.Sprintf(format, args...)}
	}
	g, ok := r.Grants[action]
	if !ok {
		return deny("action %q not granted", action)
	}
	if !r.NotBefore.IsZero() && ctx.Now.Before(r.NotBefore) {
		return deny("license not valid before %s", r.NotBefore.Format(time.RFC3339))
	}
	if !r.NotAfter.IsZero() && !ctx.Now.Before(r.NotAfter) {
		return deny("license expired at %s", r.NotAfter.Format(time.RFC3339))
	}
	if len(r.DeviceClasses) > 0 && !containsString(r.DeviceClasses, ctx.DeviceClass) {
		return deny("device class %q not permitted", ctx.DeviceClass)
	}
	if len(r.Regions) > 0 && !containsString(r.Regions, ctx.Region) {
		return deny("region %q not permitted", ctx.Region)
	}
	if r.RequireDomain && !ctx.InDomain {
		return deny("license requires an authorized domain")
	}
	if g.Count == Unlimited {
		return Decision{Allowed: true, Remaining: Unlimited}
	}
	used := ctx.Used[action]
	if used >= g.Count {
		return deny("use count exhausted (%d of %d used)", used, g.Count)
	}
	return Decision{Allowed: true, Metered: true, Remaining: g.Count - used - 1}
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// Intersect returns the rights granted by BOTH r and other — the star
// license rule: a delegate's rights can only shrink. Counts take the
// minimum, windows intersect, allowlists intersect (an empty allowlist
// means "no restriction" and adopts the other side's list), boolean
// restrictions OR together.
func (r *Rights) Intersect(other *Rights) *Rights {
	out := &Rights{Grants: make(map[Action]Grant)}
	for act, ga := range r.Grants {
		gb, ok := other.Grants[act]
		if !ok {
			continue
		}
		count := ga.Count
		if count == Unlimited || (gb.Count != Unlimited && gb.Count < count) {
			count = gb.Count
		}
		out.Grants[act] = Grant{Action: act, Count: count}
	}
	out.NotBefore = laterTime(r.NotBefore, other.NotBefore)
	out.NotAfter = earlierTime(r.NotAfter, other.NotAfter)
	dc, dcImpossible := intersectLists(r.DeviceClasses, other.DeviceClasses)
	rg, rgImpossible := intersectLists(r.Regions, other.Regions)
	out.DeviceClasses = dc
	out.Regions = rg
	out.RequireDomain = r.RequireDomain || other.RequireDomain
	out.DelegationAllowed = r.DelegationAllowed && other.DelegationAllowed
	// Disjoint allowlists mean no context can ever satisfy both sides.
	// An empty list encodes "unrestricted", so the only sound encoding of
	// "nothing permitted" is to drop every grant.
	if dcImpossible || rgImpossible {
		out.Grants = make(map[Action]Grant)
		out.DeviceClasses = nil
		out.Regions = nil
	}
	return out
}

// laterTime returns the later of two times, treating zero as "unbounded".
func laterTime(a, b time.Time) time.Time {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	if a.After(b) {
		return a
	}
	return b
}

// earlierTime returns the earlier of two, treating zero as "unbounded".
func earlierTime(a, b time.Time) time.Time {
	if a.IsZero() {
		return b
	}
	if b.IsZero() {
		return a
	}
	if a.Before(b) {
		return a
	}
	return b
}

// intersectLists intersects two allowlists where empty means "anything".
// impossible is true when both sides restrict but share no entry, i.e. the
// combined constraint is unsatisfiable.
func intersectLists(a, b []string) (out []string, impossible bool) {
	if len(a) == 0 {
		return append([]string(nil), b...), false
	}
	if len(b) == 0 {
		return append([]string(nil), a...), false
	}
	for _, v := range a {
		if containsString(b, v) {
			out = append(out, v)
		}
	}
	return out, len(out) == 0
}

// Narrower reports whether r grants no more than base in every dimension —
// the check a compliant device runs before honouring a star license.
func (r *Rights) Narrower(base *Rights) bool {
	// Rights granting no actions permit nothing, hence are narrower than
	// anything regardless of their constraint lists.
	if len(r.Grants) == 0 {
		return true
	}
	for act, g := range r.Grants {
		bg, ok := base.Grants[act]
		if !ok {
			return false
		}
		if bg.Count != Unlimited && (g.Count == Unlimited || g.Count > bg.Count) {
			return false
		}
	}
	if !base.NotBefore.IsZero() && (r.NotBefore.IsZero() || r.NotBefore.Before(base.NotBefore)) {
		return false
	}
	if !base.NotAfter.IsZero() && (r.NotAfter.IsZero() || r.NotAfter.After(base.NotAfter)) {
		return false
	}
	if len(base.DeviceClasses) > 0 {
		if len(r.DeviceClasses) == 0 {
			return false
		}
		for _, c := range r.DeviceClasses {
			if !containsString(base.DeviceClasses, c) {
				return false
			}
		}
	}
	if len(base.Regions) > 0 {
		if len(r.Regions) == 0 {
			return false
		}
		for _, c := range r.Regions {
			if !containsString(base.Regions, c) {
				return false
			}
		}
	}
	if base.RequireDomain && !r.RequireDomain {
		return false
	}
	return true
}

// String renders the canonical text form: grants sorted by action,
// constraints in fixed order, lists sorted. Canonical text is what gets
// hashed into license signatures, so it must be deterministic.
func (r *Rights) String() string {
	var b strings.Builder
	actions := make([]string, 0, len(r.Grants))
	for a := range r.Grants {
		actions = append(actions, string(a))
	}
	sort.Strings(actions)
	for _, a := range actions {
		g := r.Grants[Action(a)]
		if g.Count == Unlimited {
			fmt.Fprintf(&b, "grant %s;\n", a)
		} else {
			fmt.Fprintf(&b, "grant %s count %d;\n", a, g.Count)
		}
	}
	switch {
	case !r.NotBefore.IsZero() && !r.NotAfter.IsZero():
		fmt.Fprintf(&b, "valid from %q until %q;\n",
			r.NotBefore.UTC().Format(time.RFC3339), r.NotAfter.UTC().Format(time.RFC3339))
	case !r.NotAfter.IsZero():
		fmt.Fprintf(&b, "valid until %q;\n", r.NotAfter.UTC().Format(time.RFC3339))
	case !r.NotBefore.IsZero():
		fmt.Fprintf(&b, "valid from %q until %q;\n",
			r.NotBefore.UTC().Format(time.RFC3339), time.Time{}.UTC().Format(time.RFC3339))
	}
	if len(r.DeviceClasses) > 0 {
		fmt.Fprintf(&b, "device class %s;\n", quotedList(r.DeviceClasses))
	}
	if len(r.Regions) > 0 {
		fmt.Fprintf(&b, "region %s;\n", quotedList(r.Regions))
	}
	if r.RequireDomain {
		b.WriteString("require domain;\n")
	}
	if r.DelegationAllowed {
		b.WriteString("delegate allow;\n")
	}
	return b.String()
}

func quotedList(items []string) string {
	cp := append([]string(nil), items...)
	sort.Strings(cp)
	quoted := make([]string, len(cp))
	for i, s := range cp {
		quoted[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(quoted, ", ")
}

// Canonical returns the canonical byte form used in license signatures.
func (r *Rights) Canonical() []byte { return []byte(r.String()) }

// Clone deep-copies the rights.
func (r *Rights) Clone() *Rights {
	out := &Rights{
		Grants:            make(map[Action]Grant, len(r.Grants)),
		NotBefore:         r.NotBefore,
		NotAfter:          r.NotAfter,
		DeviceClasses:     append([]string(nil), r.DeviceClasses...),
		Regions:           append([]string(nil), r.Regions...),
		RequireDomain:     r.RequireDomain,
		DelegationAllowed: r.DelegationAllowed,
	}
	for k, v := range r.Grants {
		out.Grants[k] = v
	}
	return out
}

// Equal compares two rights by canonical form.
func (r *Rights) Equal(other *Rights) bool {
	return r.String() == other.String()
}

// Validate checks internal consistency (a license with invalid rights is
// rejected at issuance).
func (r *Rights) Validate() error {
	if len(r.Grants) == 0 {
		return errors.New("rel: rights grant no actions")
	}
	for a, g := range r.Grants {
		if a == "" {
			return errors.New("rel: empty action name")
		}
		if g.Count != Unlimited && g.Count <= 0 {
			return fmt.Errorf("rel: grant %q has non-positive count %d", a, g.Count)
		}
	}
	if !r.NotBefore.IsZero() && !r.NotAfter.IsZero() && !r.NotBefore.Before(r.NotAfter) {
		return errors.New("rel: validity window is empty")
	}
	return nil
}
