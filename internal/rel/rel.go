// Package rel implements the P2DRM rights expression language: the small
// policy language embedded in every license that tells a compliant device
// what the holder may do with the content.
//
// The 2004 paper assumes an abstract "rights" blob inside licenses
// (the commercial systems of the era used ODRL or XrML); this package is
// the reproduction's concrete instantiation. It is deliberately small but
// real: a grammar with a lexer, parser and evaluator, and a canonical
// text form that parses back to itself — the form licenses embed and
// signatures cover.
//
// Grammar (statements end with ';', comments start with '#'):
//
//	grant <action> [count N];          # play, copy, transfer, export, ...
//	valid from "RFC3339" until "RFC3339";
//	valid until "RFC3339";
//	device class "audio" [, "video"];  # device must match one listed class
//	region "EU" [, "US"];              # playback region allowlist
//	require domain;                    # only inside an authorized domain
//	delegate allow | delegate deny;    # a flag carried in the canonical text
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
	// DelegationAllowed records a template's `delegate allow`. No protocol
	// acts on it; it is part of the canonical text licenses are signed
	// over, so templates that set it keep their denominations.
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
	case !r.NotBefore.IsZero():
		// An unbounded end renders as the zero time, which parses back
		// as "unbounded".
		fmt.Fprintf(&b, "valid from %s until %s;\n", quoteTime(r.NotBefore), quoteTime(r.NotAfter))
	case !r.NotAfter.IsZero():
		fmt.Fprintf(&b, "valid until %s;\n", quoteTime(r.NotAfter))
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
		quoted[i] = quote(s)
	}
	return strings.Join(quoted, ", ")
}

// quote is the one quoting rule, the lexer's in reverse: only '"' and
// '\' are escaped. Parse refuses every other byte an escape would be
// needed for (control bytes, invalid UTF-8), so whatever it accepted
// renders here as text it accepts again.
func quote(s string) string { return `"` + escaper.Replace(s) + `"` }

var escaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

func quoteTime(t time.Time) string { return quote(t.UTC().Format(time.RFC3339)) }

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
