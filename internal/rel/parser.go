package rel

import (
	"fmt"
	"strconv"
	"time"
)

// Parse compiles rights-expression source text into Rights. Parsing a text
// and re-rendering with String is idempotent: Parse(s).String() is
// canonical regardless of the input's ordering or whitespace.
func Parse(src string) (*Rights, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	r := &Rights{Grants: make(map[Action]Grant)}
	for p.peek().kind != tokEOF {
		if err := p.statement(r); err != nil {
			return nil, err
		}
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// MustParse is Parse for statically-known-good sources; panics on error.
func MustParse(src string) *Rights {
	r, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return r
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

// expect consumes a token of the given kind or fails.
func (p *parser) expect(kind tokenKind) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, p.errf(t, "expected %s, found %s", kind, t)
	}
	return t, nil
}

// expectIdent consumes a specific keyword.
func (p *parser) expectIdent(word string) (token, error) {
	t := p.next()
	if t.kind != tokIdent || t.text != word {
		return t, p.errf(t, "expected %q, found %s", word, t)
	}
	return t, nil
}

func (p *parser) statement(r *Rights) error {
	t := p.next()
	if t.kind != tokIdent {
		return p.errf(t, "expected statement keyword, found %s", t)
	}
	switch t.text {
	case "grant":
		return p.grantStmt(r)
	case "valid":
		return p.validStmt(r)
	case "device":
		return p.deviceStmt(r)
	case "region":
		return p.regionStmt(r)
	case "require":
		return p.requireStmt(r)
	case "delegate":
		return p.delegateStmt(r)
	default:
		return p.errf(t, "unknown statement %q", t.text)
	}
}

func (p *parser) grantStmt(r *Rights) error {
	act, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	g := Grant{Action: Action(act.text), Count: Unlimited}
	if p.peek().kind == tokIdent && p.peek().text == "count" {
		p.next()
		n, err := p.expect(tokInt)
		if err != nil {
			return err
		}
		v, err := strconv.ParseInt(n.text, 10, 64)
		if err != nil || v <= 0 {
			return p.errf(n, "count must be a positive integer")
		}
		g.Count = v
	}
	if prev, dup := r.Grants[g.Action]; dup {
		return p.errf(act, "duplicate grant for %q (previous count %d)", g.Action, prev.Count)
	}
	r.Grants[g.Action] = g
	_, err = p.expect(tokSemi)
	return err
}

// parseTime reads an RFC 3339 time and refuses one the canonical form
// cannot carry: a fraction of a second, or an offset that moves it out of
// the four-digit years. Either would render as another time, or as text
// that does not parse.
func (p *parser) parseTime(t token) (time.Time, error) {
	ts, err := time.Parse(time.RFC3339, t.text)
	if err != nil {
		return time.Time{}, p.errf(t, "invalid RFC3339 time %q", t.text)
	}
	ts = ts.UTC()
	if back, err := time.Parse(time.RFC3339, ts.Format(time.RFC3339)); err != nil || !back.Equal(ts) {
		return time.Time{}, p.errf(t, "time %q has no whole-second UTC form", t.text)
	}
	return ts, nil
}

func (p *parser) validStmt(r *Rights) error {
	t := p.next()
	if t.kind != tokIdent {
		return p.errf(t, "expected 'from' or 'until', found %s", t)
	}
	switch t.text {
	case "from":
		fromTok, err := p.expect(tokString)
		if err != nil {
			return err
		}
		from, err := p.parseTime(fromTok)
		if err != nil {
			return err
		}
		if _, err := p.expectIdent("until"); err != nil {
			return err
		}
		untilTok, err := p.expect(tokString)
		if err != nil {
			return err
		}
		until, err := p.parseTime(untilTok)
		if err != nil {
			return err
		}
		if !r.NotBefore.IsZero() || !r.NotAfter.IsZero() {
			return p.errf(t, "duplicate validity window")
		}
		r.NotBefore, r.NotAfter = from, until
	case "until":
		untilTok, err := p.expect(tokString)
		if err != nil {
			return err
		}
		until, err := p.parseTime(untilTok)
		if err != nil {
			return err
		}
		if !r.NotBefore.IsZero() || !r.NotAfter.IsZero() {
			return p.errf(t, "duplicate validity window")
		}
		r.NotAfter = until
	default:
		return p.errf(t, "expected 'from' or 'until', found %q", t.text)
	}
	_, err := p.expect(tokSemi)
	return err
}

func (p *parser) stringList() ([]string, error) {
	var out []string
	for {
		s, err := p.expect(tokString)
		if err != nil {
			return nil, err
		}
		if s.text == "" {
			return nil, p.errf(s, "empty string in list")
		}
		out = append(out, s.text)
		if p.peek().kind != tokComma {
			return out, nil
		}
		p.next()
	}
}

func (p *parser) deviceStmt(r *Rights) error {
	if _, err := p.expectIdent("class"); err != nil {
		return err
	}
	list, err := p.stringList()
	if err != nil {
		return err
	}
	r.DeviceClasses = append(r.DeviceClasses, list...)
	_, err = p.expect(tokSemi)
	return err
}

func (p *parser) regionStmt(r *Rights) error {
	list, err := p.stringList()
	if err != nil {
		return err
	}
	r.Regions = append(r.Regions, list...)
	_, err = p.expect(tokSemi)
	return err
}

func (p *parser) requireStmt(r *Rights) error {
	if _, err := p.expectIdent("domain"); err != nil {
		return err
	}
	r.RequireDomain = true
	_, err := p.expect(tokSemi)
	return err
}

func (p *parser) delegateStmt(r *Rights) error {
	t := p.next()
	if t.kind != tokIdent {
		return p.errf(t, "expected 'allow' or 'deny', found %s", t)
	}
	switch t.text {
	case "allow":
		r.DelegationAllowed = true
	case "deny":
		r.DelegationAllowed = false
	default:
		return p.errf(t, "expected 'allow' or 'deny', found %q", t.text)
	}
	_, err := p.expect(tokSemi)
	return err
}
