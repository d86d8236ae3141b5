package snoop

import (
	"strconv"
	"strings"
)

// Parse parses a Sentinel specification into declarations.
func Parse(src string) ([]Decl, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var decls []Decl
	for !p.at(tokEOF, "") {
		d, err := p.decl()
		if err != nil {
			return nil, err
		}
		decls = append(decls, d)
	}
	return decls, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

// at reports whether the current token has the kind (and text, when text
// is non-empty; identifiers compare case-insensitively for keywords).
func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	if t.kind != kind {
		return false
	}
	if text == "" {
		return true
	}
	if kind == tokIdent {
		return strings.EqualFold(t.text, text)
	}
	return t.text == text
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string, what string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	return token{}, errAt(p.cur(), "expected %s, found %v", what, p.cur())
}

func (p *parser) decl() (Decl, error) {
	switch {
	case p.at(tokIdent, "class"):
		return p.classDecl()
	case p.at(tokIdent, "event"):
		return p.eventDecl()
	case p.at(tokIdent, "rule"):
		return p.ruleDecl()
	default:
		return nil, errAt(p.cur(), "expected class, event or rule declaration, found %v", p.cur())
	}
}

// classDecl := "class" IDENT ["extends" IDENT] ["reactive"] "{" {classEvent} "}"
func (p *parser) classDecl() (Decl, error) {
	p.next() // class
	name, err := p.expect(tokIdent, "", "class name")
	if err != nil {
		return nil, err
	}
	d := &ClassDecl{Name: name.text}
	if p.accept(tokIdent, "extends") {
		super, err := p.expect(tokIdent, "", "superclass name")
		if err != nil {
			return nil, err
		}
		d.Super = super.text
	}
	if p.accept(tokIdent, "reactive") {
		d.Reactive = true
	}
	if _, err := p.expect(tokPunct, "{", "'{'"); err != nil {
		return nil, err
	}
	for !p.accept(tokPunct, "}") {
		switch {
		case p.at(tokIdent, "event"):
			ce, err := p.classEvent()
			if err != nil {
				return nil, err
			}
			d.Events = append(d.Events, ce)
		case p.at(tokIdent, "public"), p.at(tokIdent, "protected"),
			p.at(tokIdent, "private"), p.at(tokIdent, "rule"):
			vis := "PUBLIC"
			if !p.at(tokIdent, "rule") {
				vis = strings.ToUpper(p.next().text)
			}
			rd, err := p.ruleDecl()
			if err != nil {
				return nil, err
			}
			rule := rd.(*RuleDecl)
			rule.Class = d.Name
			rule.Visibility = vis
			d.Rules = append(d.Rules, rule)
		default:
			return nil, errAt(p.cur(), "expected event or rule declaration in class body, found %v", p.cur())
		}
	}
	return d, nil
}

// classEvent := "event" modEvent {"&&" modEvent} method "(" [params] ")" ";"
// modEvent  := ("begin"|"end") "(" IDENT ")"
func (p *parser) classEvent() (ClassEvent, error) {
	var ce ClassEvent
	if _, err := p.expect(tokIdent, "event", "'event'"); err != nil {
		return ce, err
	}
	for {
		isBegin := false
		switch {
		case p.accept(tokIdent, "begin"):
			isBegin = true
		case p.accept(tokIdent, "end"):
		default:
			return ce, errAt(p.cur(), "expected begin(...) or end(...), found %v", p.cur())
		}
		if _, err := p.expect(tokPunct, "(", "'('"); err != nil {
			return ce, err
		}
		ev, err := p.expect(tokIdent, "", "event name")
		if err != nil {
			return ce, err
		}
		if _, err := p.expect(tokPunct, ")", "')'"); err != nil {
			return ce, err
		}
		if isBegin {
			if ce.BeginName != "" {
				return ce, errAt(ev, "duplicate begin event name")
			}
			ce.BeginName = ev.text
		} else {
			if ce.EndName != "" {
				return ce, errAt(ev, "duplicate end event name")
			}
			ce.EndName = ev.text
		}
		if !p.accept(tokPunct, "&&") {
			break
		}
	}
	method, err := p.expect(tokIdent, "", "method name")
	if err != nil {
		return ce, err
	}
	ce.Method = method.text
	params, err := p.paramNames()
	if err != nil {
		return ce, err
	}
	ce.Params = params
	if _, err := p.expect(tokPunct, ";", "';'"); err != nil {
		return ce, err
	}
	return ce, nil
}

// paramNames := "(" [IDENT {"," IDENT}] ")"
func (p *parser) paramNames() ([]string, error) {
	if _, err := p.expect(tokPunct, "(", "'('"); err != nil {
		return nil, err
	}
	var params []string
	if p.accept(tokPunct, ")") {
		return params, nil
	}
	for {
		id, err := p.expect(tokIdent, "", "parameter name")
		if err != nil {
			return nil, err
		}
		params = append(params, id.text)
		if p.accept(tokPunct, ")") {
			return params, nil
		}
		if _, err := p.expect(tokPunct, ",", "',' or ')'"); err != nil {
			return nil, err
		}
	}
}

// eventDecl := "event" IDENT "=" expr ";"
func (p *parser) eventDecl() (Decl, error) {
	p.next() // event
	name, err := p.expect(tokIdent, "", "event name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "=", "'='"); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ";", "';'"); err != nil {
		return nil, err
	}
	return &EventDecl{Name: name.text, Expr: e}, nil
}

// ruleDecl := "rule" IDENT "(" event "," cond "," action {"," opt} ")" ";"
func (p *parser) ruleDecl() (Decl, error) {
	if _, err := p.expect(tokIdent, "rule", "'rule'"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "", "rule name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "(", "'('"); err != nil {
		return nil, err
	}
	ev, err := p.expect(tokIdent, "", "event name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ",", "','"); err != nil {
		return nil, err
	}
	d := &RuleDecl{Name: name.text, Event: ev.text}
	switch {
	case p.at(tokIdent, ""):
		d.Condition = p.next().text
	case p.at(tokString, ""):
		d.CondExpr = p.next().text
	default:
		return nil, errAt(p.cur(), "expected condition function name or predicate string, found %v", p.cur())
	}
	if _, err := p.expect(tokPunct, ",", "','"); err != nil {
		return nil, err
	}
	act, err := p.expect(tokIdent, "", "action function name")
	if err != nil {
		return nil, err
	}
	d.Action = act.text
	for p.accept(tokPunct, ",") {
		t := p.next()
		switch t.kind {
		case tokNumber:
			v, err := strconv.Atoi(t.text)
			if err != nil {
				return nil, errAt(t, "bad priority %q", t.text)
			}
			d.Priority = v
			d.HasPrio = true
		case tokIdent:
			up := strings.ToUpper(t.text)
			switch up {
			case "RECENT", "CHRONICLE", "CONTINUOUS", "CUMULATIVE":
				d.Context = up
			case "IMMEDIATE", "DEFERRED", "DETACHED":
				d.Coupling = up
			case "NOW", "PREVIOUS":
				d.Trigger = up
			default:
				return nil, errAt(t, "unknown rule attribute %q", t.text)
			}
		default:
			return nil, errAt(t, "unexpected rule attribute %v", t)
		}
	}
	if _, err := p.expect(tokPunct, ")", "')'"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ";", "';'"); err != nil {
		return nil, err
	}
	return d, nil
}

// expr := orExpr { ">>" orExpr }          (sequence binds loosest)
func (p *parser) expr() (Expr, error) {
	l, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokPunct, ">>") {
		r, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "seq", L: l, R: r}
	}
	return l, nil
}

// orExpr := andExpr { ("or"|"|") andExpr }
func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokIdent, "or") || p.accept(tokPunct, "|") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "or", L: l, R: r}
	}
	return l, nil
}

// andExpr := unary { ("and"|"^") unary }
func (p *parser) andExpr() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.accept(tokIdent, "and") || p.accept(tokPunct, "^") {
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "and", L: l, R: r}
	}
	return l, nil
}

// unary := primary ["+" NUMBER]
func (p *parser) unary() (Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	if p.accept(tokPunct, "+") {
		num, err := p.expect(tokNumber, "", "time delta")
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseUint(num.text, 10, 64)
		if err != nil {
			return nil, errAt(num, "bad time delta %q", num.text)
		}
		e = &PlusExpr{Start: e, Delta: v}
	}
	return e, nil
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case p.accept(tokPunct, "("):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")", "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case p.at(tokIdent, "not"):
		return p.notExpr()
	case p.at(tokIdent, "any"):
		return p.anyExpr()
	case t.kind == tokIdent && (t.text == "A" || t.text == "A*") && p.peekPunct(1, "("):
		return p.aperiodicExpr()
	case t.kind == tokIdent && (t.text == "P" || t.text == "P*") && p.peekPunct(1, "("):
		return p.periodicExpr()
	case p.at(tokIdent, "begin") || p.at(tokIdent, "end"):
		return p.primMethodExpr()
	case t.kind == tokIdent:
		p.next()
		return &RefExpr{Name: t.text}, nil
	default:
		return nil, errAt(t, "expected event expression, found %v", t)
	}
}

// peekPunct reports whether the token at offset is the punct text.
func (p *parser) peekPunct(offset int, text string) bool {
	i := p.pos + offset
	if i >= len(p.toks) {
		return false
	}
	return p.toks[i].kind == tokPunct && p.toks[i].text == text
}

// notExpr := "not" "(" expr ")" "[" expr "," expr "]"
func (p *parser) notExpr() (Expr, error) {
	p.next() // not
	if _, err := p.expect(tokPunct, "(", "'('"); err != nil {
		return nil, err
	}
	mid, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")", "')'"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "[", "'['"); err != nil {
		return nil, err
	}
	start, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ",", "','"); err != nil {
		return nil, err
	}
	end, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "]", "']'"); err != nil {
		return nil, err
	}
	return &NotExpr{Start: start, Mid: mid, End: end}, nil
}

// anyExpr := "any" "(" NUMBER "," expr {"," expr} ")"
func (p *parser) anyExpr() (Expr, error) {
	p.next() // any
	if _, err := p.expect(tokPunct, "(", "'('"); err != nil {
		return nil, err
	}
	num, err := p.expect(tokNumber, "", "count m")
	if err != nil {
		return nil, err
	}
	m, err := strconv.Atoi(num.text)
	if err != nil {
		return nil, errAt(num, "bad count %q", num.text)
	}
	var events []Expr
	for p.accept(tokPunct, ",") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	if _, err := p.expect(tokPunct, ")", "')'"); err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, errAt(num, "any() needs at least one event")
	}
	return &AnyExpr{M: m, Events: events}, nil
}

// aperiodicExpr := ("A"|"A*") "(" expr "," expr "," expr ")"
func (p *parser) aperiodicExpr() (Expr, error) {
	op := p.next()
	if _, err := p.expect(tokPunct, "(", "'('"); err != nil {
		return nil, err
	}
	start, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ",", "','"); err != nil {
		return nil, err
	}
	mid, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ",", "','"); err != nil {
		return nil, err
	}
	end, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")", "')'"); err != nil {
		return nil, err
	}
	return &AperiodicExpr{Star: op.text == "A*", Start: start, Mid: mid, End: end}, nil
}

// periodicExpr := ("P"|"P*") "(" expr "," NUMBER "," expr ")"
func (p *parser) periodicExpr() (Expr, error) {
	op := p.next()
	if _, err := p.expect(tokPunct, "(", "'('"); err != nil {
		return nil, err
	}
	start, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ",", "','"); err != nil {
		return nil, err
	}
	num, err := p.expect(tokNumber, "", "period")
	if err != nil {
		return nil, err
	}
	period, err := strconv.ParseUint(num.text, 10, 64)
	if err != nil {
		return nil, errAt(num, "bad period %q", num.text)
	}
	if _, err := p.expect(tokPunct, ",", "','"); err != nil {
		return nil, err
	}
	end, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")", "')'"); err != nil {
		return nil, err
	}
	return &PeriodicExpr{Star: op.text == "P*", Start: start, End: end, Period: period}, nil
}

// primMethodExpr := ("begin"|"end") IDENT ["(" STRING ")"] "." IDENT "(" [params] ")"
func (p *parser) primMethodExpr() (Expr, error) {
	mod := p.next()
	class, err := p.expect(tokIdent, "", "class name")
	if err != nil {
		return nil, err
	}
	e := &PrimExpr{Begin: strings.EqualFold(mod.text, "begin"), Class: class.text}
	if p.accept(tokPunct, "(") {
		inst, err := p.expect(tokString, "", "instance name string")
		if err != nil {
			return nil, err
		}
		e.Instance = inst.text
		if _, err := p.expect(tokPunct, ")", "')'"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokPunct, ".", "'.'"); err != nil {
		return nil, err
	}
	method, err := p.expect(tokIdent, "", "method name")
	if err != nil {
		return nil, err
	}
	e.Method = method.text
	params, err := p.paramNames()
	if err != nil {
		return nil, err
	}
	e.Params = params
	return e, nil
}
