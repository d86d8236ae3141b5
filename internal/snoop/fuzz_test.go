package snoop

import (
	"errors"
	"strings"
	"testing"
)

// FuzzSnoopParse: on any input the specification parser and the predicate
// parser return without panicking, every error they report is a *Error
// positioned inside the text it was given, and a predicate that parses
// renders deterministically.
func FuzzSnoopParse(f *testing.F) {
	for _, seed := range []string{
		stockSpec,
		`rule R(e1, "qty > 10 and price <= 99.5", act, CHRONICLE, DEFERRED, 3, NOW);`,
		`event x = not(e2)[e1, e3] >> any(2, e1, e2) + 5;`,
		`event y = A*(e1, P(e2, 7, e3), e4);`,
		`class C { event begin(b) && end(e) m(x, y); public rule R(e, "not (x == 1 or y != \"z\")", a); }`,
		`not (a > 1 and b == "x") or 2.5 >= c`,
		"qty > 1 trailing\n",
		`a < b`,
		`event e = "unterminated`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		decls, err := Parse(src)
		checkPositioned(t, src, err)
		checkPredicate(t, src)
		for _, d := range decls {
			var rds []*RuleDecl
			switch d := d.(type) {
			case *RuleDecl:
				rds = []*RuleDecl{d}
			case *ClassDecl:
				rds = d.Rules
			}
			for _, rd := range rds {
				if rd.CondExpr != "" {
					checkPredicate(t, rd.CondExpr)
				}
			}
		}
	})
}

// checkPredicate parses src as a predicate twice: a failure must be
// positioned, a success must render the same String() both times.
func checkPredicate(t *testing.T, src string) {
	p, err := ParsePredicate(src)
	checkPositioned(t, src, err)
	if err != nil {
		return
	}
	again, err := ParsePredicate(src)
	if err != nil {
		t.Fatalf("%q parsed once, then failed: %v", src, err)
	}
	if s := p.String(); s != again.String() || s != p.String() {
		t.Fatalf("%q renders %q, then %q", src, s, again.String())
	}
}

// checkPositioned fails unless err is nil or a *Error whose line and column
// fall inside src (the column just past a line's end included: that is
// where the end of input sits).
func checkPositioned(t *testing.T, src string, err error) {
	if err == nil {
		return
	}
	var perr *Error
	if !errors.As(err, &perr) {
		t.Fatalf("%q: error %T %v, want a *Error", src, err, err)
	}
	lines := strings.Split(src, "\n")
	if perr.Line < 1 || perr.Line > len(lines) || perr.Col < 1 || perr.Col > len(lines[perr.Line-1])+1 {
		t.Fatalf("%q: error at %d:%d outside the input: %v", src, perr.Line, perr.Col, perr)
	}
}
