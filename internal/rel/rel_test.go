package rel

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var (
	t2004 = time.Date(2004, 6, 1, 0, 0, 0, 0, time.UTC)
	t2005 = time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
)

const sampleSrc = `
# a typical music license
grant play count 10;
grant transfer;
valid until "2005-01-01T00:00:00Z";
device class "audio";
region "EU", "US";
delegate allow;
`

func TestParseSample(t *testing.T) {
	r, err := Parse(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if g := r.Grants[ActPlay]; g.Count != 10 {
		t.Errorf("play count = %d, want 10", g.Count)
	}
	if g := r.Grants[ActTransfer]; g.Count != Unlimited {
		t.Errorf("transfer count = %d, want unlimited", g.Count)
	}
	if !r.NotAfter.Equal(t2005) {
		t.Errorf("NotAfter = %v", r.NotAfter)
	}
	if len(r.DeviceClasses) != 1 || r.DeviceClasses[0] != "audio" {
		t.Errorf("device classes = %v", r.DeviceClasses)
	}
	if len(r.Regions) != 2 {
		t.Errorf("regions = %v", r.Regions)
	}
	if !r.DelegationAllowed {
		t.Error("delegation not parsed")
	}
}

func TestParseCanonicalIdempotent(t *testing.T) {
	r := MustParse(sampleSrc)
	canon := r.String()
	r2, err := Parse(canon)
	if err != nil {
		t.Fatalf("canonical text does not reparse: %v\n%s", err, canon)
	}
	if r2.String() != canon {
		t.Errorf("canonicalisation unstable:\n%s\nvs\n%s", canon, r2.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", ""},
		{"no grants", `valid until "2005-01-01T00:00:00Z";`},
		{"missing semi", "grant play"},
		{"bad keyword", "allow play;"},
		{"bad count", "grant play count 0;"},
		{"negative count", "grant play count -1;"},
		{"bad time", `grant play; valid until "not-a-time";`},
		{"dup grant", "grant play; grant play count 2;"},
		{"dup window", `grant play; valid until "2005-01-01T00:00:00Z"; valid until "2006-01-01T00:00:00Z";`},
		{"unterminated string", `grant play; region "EU`},
		{"bad escape", `grant play; region "E\q";`},
		{"stray char", "grant play; @"},
		{"empty window", `grant play; valid from "2005-01-01T00:00:00Z" until "2004-01-01T00:00:00Z";`},
		{"empty list item", `grant play; region "";`},
		{"delegate junk", "grant play; delegate maybe;"},
		{"require junk", "grant play; require tea;"},
		{"number glued to ident", "grant play count 5x;"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tc.src)
			}
		})
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("grant play;\n  grant play;")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Line)
	}
	if !strings.Contains(se.Error(), "duplicate") {
		t.Errorf("error message %q", se.Error())
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	r, err := Parse("# leading comment\n\n  grant   play  ; # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Grants[ActPlay]; !ok {
		t.Error("grant lost")
	}
}

func TestEvaluateMatrix(t *testing.T) {
	r := MustParse(sampleSrc)
	base := Context{Now: t2004, DeviceClass: "audio", Region: "EU"}

	cases := []struct {
		name   string
		action Action
		mutate func(Context) Context
		want   bool
		reason string
	}{
		{"allowed play", ActPlay, nil, true, ""},
		{"allowed transfer", ActTransfer, nil, true, ""},
		{"not granted", ActCopy, nil, false, "not granted"},
		{"expired", ActPlay, func(c Context) Context { c.Now = t2005.Add(time.Hour); return c }, false, "expired"},
		{"expires exactly at boundary", ActPlay, func(c Context) Context { c.Now = t2005; return c }, false, "expired"},
		{"wrong device class", ActPlay, func(c Context) Context { c.DeviceClass = "video"; return c }, false, "device class"},
		{"wrong region", ActPlay, func(c Context) Context { c.Region = "JP"; return c }, false, "region"},
		{"count exhausted", ActPlay, func(c Context) Context {
			c.Used = map[Action]int64{ActPlay: 10}
			return c
		}, false, "exhausted"},
		{"count one left", ActPlay, func(c Context) Context {
			c.Used = map[Action]int64{ActPlay: 9}
			return c
		}, true, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := base
			if tc.mutate != nil {
				ctx = tc.mutate(base)
			}
			d := r.Evaluate(tc.action, ctx)
			if d.Allowed != tc.want {
				t.Fatalf("Allowed = %v (%s), want %v", d.Allowed, d.Reason, tc.want)
			}
			if !tc.want && !strings.Contains(d.Reason, tc.reason) {
				t.Errorf("Reason = %q, want contains %q", d.Reason, tc.reason)
			}
		})
	}
}

func TestEvaluateMetering(t *testing.T) {
	r := MustParse("grant play count 3;")
	d := r.Evaluate(ActPlay, Context{Now: t2004})
	if !d.Allowed || !d.Metered || d.Remaining != 2 {
		t.Errorf("decision = %+v", d)
	}
	d = r.Evaluate(ActPlay, Context{Now: t2004, Used: map[Action]int64{ActPlay: 2}})
	if !d.Allowed || d.Remaining != 0 {
		t.Errorf("last use decision = %+v", d)
	}
	un := MustParse("grant play;")
	d = un.Evaluate(ActPlay, Context{Now: t2004})
	if !d.Allowed || d.Metered || d.Remaining != Unlimited {
		t.Errorf("unlimited decision = %+v", d)
	}
}

func TestEvaluateNotBefore(t *testing.T) {
	r := MustParse(`grant play; valid from "2004-06-01T00:00:00Z" until "2005-01-01T00:00:00Z";`)
	d := r.Evaluate(ActPlay, Context{Now: t2004.Add(-time.Hour)})
	if d.Allowed {
		t.Error("allowed before window start")
	}
	d = r.Evaluate(ActPlay, Context{Now: t2004})
	if !d.Allowed {
		t.Errorf("denied at window start: %s", d.Reason)
	}
}

func TestEvaluateRequireDomain(t *testing.T) {
	r := MustParse("grant play; require domain;")
	if r.Evaluate(ActPlay, Context{Now: t2004}).Allowed {
		t.Error("allowed outside domain")
	}
	if !r.Evaluate(ActPlay, Context{Now: t2004, InDomain: true}).Allowed {
		t.Error("denied inside domain")
	}
}

func TestIntersect(t *testing.T) {
	base := MustParse(`
grant play count 10;
grant copy count 4;
grant transfer;
region "EU", "US";
`)
	restriction := MustParse(`
grant play count 3;
grant transfer count 1;
valid until "2005-01-01T00:00:00Z";
region "EU", "JP";
device class "audio";
require domain;
`)
	got := base.Intersect(restriction)
	if g := got.Grants[ActPlay]; g.Count != 3 {
		t.Errorf("play count = %d, want 3", g.Count)
	}
	if _, ok := got.Grants[ActCopy]; ok {
		t.Error("copy survived intersection though absent in restriction")
	}
	if g := got.Grants[ActTransfer]; g.Count != 1 {
		t.Errorf("transfer count = %d, want 1", g.Count)
	}
	if !got.NotAfter.Equal(t2005) {
		t.Errorf("NotAfter = %v", got.NotAfter)
	}
	if len(got.Regions) != 1 || got.Regions[0] != "EU" {
		t.Errorf("regions = %v", got.Regions)
	}
	if len(got.DeviceClasses) != 1 || got.DeviceClasses[0] != "audio" {
		t.Errorf("device classes = %v (empty side should adopt other)", got.DeviceClasses)
	}
	if !got.RequireDomain {
		t.Error("RequireDomain lost")
	}
}

func TestIntersectIsNarrower(t *testing.T) {
	base := MustParse("grant play count 10; grant transfer; region \"EU\";")
	restr := MustParse("grant play count 3; device class \"audio\";")
	inter := base.Intersect(restr)
	if !inter.Narrower(base) {
		t.Error("intersection is not narrower than base")
	}
	if !inter.Narrower(restr) {
		t.Error("intersection is not narrower than restriction")
	}
}

func TestNarrowerRejectsWidening(t *testing.T) {
	base := MustParse(`grant play count 5; region "EU"; valid until "2005-01-01T00:00:00Z";`)
	cases := []struct{ name, src string }{
		{"more uses", `grant play count 6; region "EU"; valid until "2005-01-01T00:00:00Z";`},
		{"unlimited uses", `grant play; region "EU"; valid until "2005-01-01T00:00:00Z";`},
		{"new action", `grant play count 5; grant copy; region "EU"; valid until "2005-01-01T00:00:00Z";`},
		{"wider region", `grant play count 5; region "EU", "US"; valid until "2005-01-01T00:00:00Z";`},
		{"no region limit", `grant play count 5; valid until "2005-01-01T00:00:00Z";`},
		{"longer validity", `grant play count 5; region "EU"; valid until "2006-01-01T00:00:00Z";`},
		{"no validity limit", `grant play count 5; region "EU";`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if MustParse(tc.src).Narrower(base) {
				t.Error("widened rights passed Narrower")
			}
		})
	}
	same := MustParse(`grant play count 5; region "EU"; valid until "2005-01-01T00:00:00Z";`)
	if !same.Narrower(base) {
		t.Error("identical rights failed Narrower")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := MustParse(sampleSrc)
	c := r.Clone()
	c.Grants[ActCopy] = Grant{Action: ActCopy, Count: 1}
	c.Regions = append(c.Regions, "JP")
	if _, ok := r.Grants[ActCopy]; ok {
		t.Error("clone shares grant map")
	}
	if len(r.Regions) != 2 {
		t.Error("clone shares region slice")
	}
}

// randomRights builds arbitrary-but-valid rights from a seed, every
// field of the language included.
func randomRights(r *rand.Rand) *Rights {
	out := &Rights{Grants: make(map[Action]Grant)}
	actions := []Action{ActPlay, ActCopy, ActTransfer, ActExport, ActPrint}
	n := 1 + r.Intn(len(actions))
	for _, a := range actions[:n] {
		count := Unlimited
		if r.Intn(2) != 0 {
			count = int64(1 + r.Intn(100))
		}
		out.Grants[a] = Grant{Action: a, Count: count}
	}
	if r.Intn(2) == 0 {
		out.NotAfter = t2005.Add(time.Duration(r.Intn(1000)) * time.Hour)
	}
	if r.Intn(3) == 0 {
		out.NotBefore = t2004.Add(-time.Duration(r.Intn(1000)) * time.Hour)
	}
	if r.Intn(2) == 0 {
		out.DeviceClasses = []string{[]string{"audio", "video", "ebook"}[r.Intn(3)]}
	}
	if r.Intn(2) == 0 {
		out.Regions = []string{[]string{"EU", "US", "JP"}[r.Intn(3)]}
	}
	out.RequireDomain = r.Intn(4) == 0
	out.DelegationAllowed = r.Intn(2) == 0
	return out
}

// Property: canonical text always reparses to equal rights.
func TestQuickCanonicalRoundtrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}
	f := func(seed int64) bool {
		r := randomRights(rand.New(rand.NewSource(seed)))
		back, err := Parse(r.String())
		if err != nil {
			return false
		}
		return back.Equal(r)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Intersect is commutative (by canonical form) and its result is
// Narrower than both operands.
func TestQuickIntersectProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}
	f := func(seedA, seedB int64) bool {
		a := randomRights(rand.New(rand.NewSource(seedA)))
		b := randomRights(rand.New(rand.NewSource(seedB)))
		ab := a.Intersect(b)
		ba := b.Intersect(a)
		if !ab.Equal(ba) {
			return false
		}
		return ab.Narrower(a) && ab.Narrower(b)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: anything the intersection allows, both operands allow.
func TestQuickIntersectSoundness(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(14))}
	ctxs := []Context{
		{Now: t2004, DeviceClass: "audio", Region: "EU"},
		{Now: t2004, DeviceClass: "video", Region: "US", InDomain: true},
		{Now: t2005.Add(-time.Hour), DeviceClass: "ebook", Region: "JP"},
	}
	actions := []Action{ActPlay, ActCopy, ActTransfer, ActExport, ActPrint}
	f := func(seedA, seedB int64) bool {
		a := randomRights(rand.New(rand.NewSource(seedA)))
		b := randomRights(rand.New(rand.NewSource(seedB)))
		inter := a.Intersect(b)
		for _, ctx := range ctxs {
			for _, act := range actions {
				if inter.Evaluate(act, ctx).Allowed {
					if !a.Evaluate(act, ctx).Allowed || !b.Evaluate(act, ctx).Allowed {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
