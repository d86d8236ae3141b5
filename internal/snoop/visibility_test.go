package snoop

import (
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/rules"
)

const hierSpec = `
class SECURITY reactive {
    event end(trade) trade(amount);
}
class STOCK extends SECURITY reactive {
    private   rule OnlyStock(trade, true, privAct);
    protected rule SubTree(trade, true, protAct);
    public    rule Everyone(trade, true, pubAct);
}
class TECH_STOCK extends STOCK reactive { }
`

func TestParseClassBodyRules(t *testing.T) {
	decls, err := Parse(hierSpec)
	if err != nil {
		t.Fatal(err)
	}
	var stock *ClassDecl
	for _, d := range decls {
		if cd, ok := d.(*ClassDecl); ok && cd.Name == "STOCK" {
			stock = cd
		}
	}
	if stock == nil || len(stock.Rules) != 3 {
		t.Fatalf("class rules: %+v", stock)
	}
	wantVis := map[string]string{"OnlyStock": "PRIVATE", "SubTree": "PROTECTED", "Everyone": "PUBLIC"}
	for _, r := range stock.Rules {
		if r.Class != "STOCK" || r.Visibility != wantVis[r.Name] {
			t.Fatalf("rule %q: class=%q vis=%q", r.Name, r.Class, r.Visibility)
		}
	}
	// Bare "rule" inside a class body defaults to public.
	decls, err = Parse(`class C reactive { rule R(e, true, a); }`)
	if err != nil {
		t.Fatal(err)
	}
	cd := decls[0].(*ClassDecl)
	if len(cd.Rules) != 1 || cd.Rules[0].Visibility != "PUBLIC" {
		t.Fatalf("default visibility: %+v", cd.Rules)
	}
	if _, err := Parse(`class C reactive { bogus; }`); err == nil {
		t.Fatal("bad class item accepted")
	}
}

func TestCompileClassBodyRulesEndToEnd(t *testing.T) {
	c := newCompiler(t)
	var mu sync.Mutex // equal-priority rules run concurrently on the scheduler's pool
	runs := map[string][]string{}
	mk := func(name string) rules.Action {
		return func(x *rules.Execution) error {
			mu.Lock()
			defer mu.Unlock()
			runs[name] = append(runs[name], x.Occurrence.Leaves()[0].Class)
			return nil
		}
	}
	c.comp.Actions["privAct"] = mk("priv")
	c.comp.Actions["protAct"] = mk("prot")
	c.comp.Actions["pubAct"] = mk("pub")
	if err := c.comp.CompileSource(hierSpec); err != nil {
		t.Fatal(err)
	}
	tx, _ := c.txns.Begin()
	for _, cls := range []string{"SECURITY", "STOCK", "TECH_STOCK"} {
		c.det.SignalMethod(cls, "trade(amount)", event.End, 1, nil, tx.ID())
		c.sched.Drain()
	}
	if got := runs["priv"]; len(got) != 1 || got[0] != "STOCK" {
		t.Fatalf("private: %v", got)
	}
	if got := runs["prot"]; len(got) != 2 || got[0] != "STOCK" || got[1] != "TECH_STOCK" {
		t.Fatalf("protected: %v", got)
	}
	if got := runs["pub"]; len(got) != 3 {
		t.Fatalf("public: %v", got)
	}
	_ = tx.Commit()
}
