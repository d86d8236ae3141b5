package snoop

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/rules"
)

// execWith builds an Execution whose occurrence carries the given params.
func execWith(params event.ParamList) *rules.Execution {
	return &rules.Execution{
		Occurrence: &event.Occurrence{Name: "e", Kind: event.KindExplicit, Params: params},
	}
}

// execComposite builds an Execution over a composite with two leaves.
func execComposite(a, b event.ParamList) *rules.Execution {
	l1 := &event.Occurrence{Name: "e1", Kind: event.KindExplicit, Seq: 1, Params: a}
	l2 := &event.Occurrence{Name: "e2", Kind: event.KindExplicit, Seq: 2, Params: b}
	return &rules.Execution{
		Occurrence: &event.Occurrence{Name: "c", Kind: event.KindComposite, Seq: 2,
			Constituents: []*event.Occurrence{l1, l2}},
	}
}

func evalPred(t *testing.T, src string, x *rules.Execution) bool {
	t.Helper()
	cond, err := PredicateCondition(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return cond(x)
}

func TestPredicateComparisons(t *testing.T) {
	x := execWith(event.NewParams("qty", 15, "price", 9.5, "sym", "IBM", "hot", true))
	cases := []struct {
		src  string
		want bool
	}{
		{`qty > 10`, true},
		{`qty > 15`, false},
		{`qty >= 15`, true},
		{`qty < 20`, true},
		{`qty <= 14`, false},
		{`qty == 15`, true},
		{`qty != 15`, false},
		{`price < 9.6`, true},
		{`price > 9.5`, false},
		{`sym == "IBM"`, true},
		{`sym != "DEC"`, true},
		{`sym == "DEC"`, false},
		{`hot == true`, true},
		{`hot == false`, false},
		{`qty > 10 and price < 10`, true},
		{`qty > 100 or price < 10`, true},
		{`qty > 100 and price < 10`, false},
		{`not qty > 100`, true},
		{`not (qty > 10 and price < 10)`, false},
		{`(qty > 100 or sym == "IBM") and hot == true`, true},
		{`missing > 1`, false}, // absent parameter: false
		{`missing == "x" or qty > 1`, true},
		{`10 < qty`, true},  // literal on the left
		{`sym < "Z"`, true}, // strings order, as in a Where
	}
	for _, c := range cases {
		if got := evalPred(t, c.src, x); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestPredicateAcrossConstituents(t *testing.T) {
	x := execComposite(event.NewParams("qty", 3), event.NewParams("price", 7.0))
	if !evalPred(t, `qty == 3 and price == 7`, x) {
		t.Fatal("parameters from different constituents not found")
	}
	// First occurrence of a duplicated name wins (detection order).
	y := execComposite(event.NewParams("v", 1), event.NewParams("v", 2))
	if !evalPred(t, `v == 1`, y) {
		t.Fatal("duplicate parameter lookup should use the first constituent")
	}
}

func TestPredicateErrors(t *testing.T) {
	for _, src := range []string{
		``, `qty >`, `> 10`, `qty ~ 10`, `qty == `, `(qty > 1`, `qty > 1 trailing`,
		`qty = 10`, `qty === 3`, `not`, `qty > 1.x`, `a < b`, `1 < 2`,
	} {
		if _, err := ParsePredicate(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// TestPredicateErrorPositions: every predicate error points at the token
// that caused it, not at the start of the run of tokens around it.
func TestPredicateErrorPositions(t *testing.T) {
	cases := []struct {
		src       string
		line, col int
		want      string
	}{
		{`qty > 1 trailing`, 1, 9, "trailing input"},
		{`not (a > 1 and b == "x") oops`, 1, 26, "trailing input"},
		{`qty ~ 10`, 1, 5, "unexpected character"},
		{`qty = 10`, 1, 5, "expected comparison operator"},
		{`qty > `, 1, 7, "expected parameter"},
		{`(qty > 1`, 1, 9, "')'"},
		{`qty > 1.x`, 1, 9, "fraction digits"},
		{`qty > "open`, 1, 7, "unterminated string"},
		{`a < b`, 1, 1, "one parameter and one literal"},
		{`qty > 10 and 3 == 4`, 1, 14, "one parameter and one literal"},
		{"x > 1 and\n  y >> 2", 2, 5, "expected comparison operator"},
	}
	for _, c := range cases {
		_, err := ParsePredicate(c.src)
		var perr *Error
		if !errors.As(err, &perr) {
			t.Errorf("%q: error %v, want a *Error", c.src, err)
			continue
		}
		if perr.Line != c.line || perr.Col != c.col || !strings.Contains(perr.Msg, c.want) {
			t.Errorf("%q: %d:%d %s, want %d:%d %s", c.src, perr.Line, perr.Col, perr.Msg, c.line, c.col, c.want)
		}
	}
}

func TestPredicateString(t *testing.T) {
	p, err := ParsePredicate(`not (a > 1 and b == "x") or c < 2.5`)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"NOT", "AND", "OR", "a > 1", "b = x", "c < 2.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String()=%q missing %q", s, want)
		}
	}
}

func TestInlinePredicateInRuleDecl(t *testing.T) {
	decls, err := Parse(`rule R(e1, "qty > 10", act, CHRONICLE);`)
	if err != nil {
		t.Fatal(err)
	}
	rd := decls[0].(*RuleDecl)
	if rd.CondExpr != "qty > 10" || rd.Condition != "" {
		t.Fatalf("rule: %+v", rd)
	}
}

func TestInlinePredicateEndToEnd(t *testing.T) {
	c := newCompiler(t)
	var fired []int
	c.comp.Actions["act"] = func(x *rules.Execution) error {
		v, _ := x.Params()[0].Get("qty")
		fired = append(fired, v.(int))
		return nil
	}
	if err := c.comp.CompileSource(stockSpec + `rule Big(e1, "qty >= 100", act);`); err != nil {
		t.Fatal(err)
	}
	tx, _ := c.txns.Begin()
	for _, qty := range []int{5, 100, 42, 250} {
		c.det.SignalMethod("STOCK", "sell_stock(qty)", event.End, 1, event.NewParams("qty", qty), tx.ID())
		c.sched.Drain()
	}
	if len(fired) != 2 || fired[0] != 100 || fired[1] != 250 {
		t.Fatalf("fired=%v", fired)
	}
	_ = tx.Commit()

	// A bad predicate fails at compile time.
	if err := c.comp.CompileSource(`rule Bad(e1, "qty >>> 1", act);`); err == nil {
		t.Fatal("bad predicate compiled")
	}
}
