package snoop

import (
	"strconv"
	"strings"

	"repro/internal/query"
	"repro/internal/rules"
)

// Inline condition predicates: instead of naming a bound Go function, a
// rule declaration may give a quoted predicate over the triggering
// occurrence's parameters, e.g.
//
//	rule R(e1, "qty > 10 and price <= 99.5", act);
//
// Grammar (lexed with the Snoop lexer):
//
//	pred    := andPred { "or" andPred }
//	andPred := unary   { "and" unary }
//	unary   := "not" unary | "(" pred ")" | cmp
//	cmp     := operand ( "==" | "!=" | "<" | "<=" | ">" | ">=" ) operand
//	operand := IDENT | NUMBER [ "." NUMBER ] | STRING | "true" | "false"
//
// Inside a rule declaration the predicate is itself a string, so its
// string literals are written \"IBM\". A predicate compiles to a
// query.Pred, so it means what the same predicate means in a rules.Where:
// exactly one side of each comparison names a parameter and the other is
// a literal (a literal on the left flips the operator), and values compare
// in query's one order. The parameters form one attribute map, the first
// value of each name across the constituent occurrences in detection
// order; an absent name is null.

// ParsePredicate compiles a predicate source string.
func ParsePredicate(src string) (query.Pred, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	pred, err := p.orPred()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF, "") {
		return nil, errAt(p.cur(), "trailing input in predicate")
	}
	return pred, nil
}

// PredicateCondition wraps a parsed predicate as a rule condition.
func PredicateCondition(src string) (rules.Condition, error) {
	pred, err := ParsePredicate(src)
	if err != nil {
		return nil, err
	}
	return func(x *rules.Execution) bool {
		params := make(map[string]any)
		for _, list := range x.Params() {
			for _, p := range list {
				if _, seen := params[p.Name]; !seen {
					params[p.Name] = p.Value
				}
			}
		}
		return pred.Eval(params)
	}, nil
}

func (p *parser) orPred() (query.Pred, error) { return p.predList("or", p.andPred, query.Or) }

func (p *parser) andPred() (query.Pred, error) { return p.predList("and", p.unaryPred, query.And) }

// predList parses operand { word operand } and joins the operands.
func (p *parser) predList(word string, operand func() (query.Pred, error), join func(...query.Pred) query.Pred) (query.Pred, error) {
	var ps []query.Pred
	for {
		x, err := operand()
		if err != nil {
			return nil, err
		}
		ps = append(ps, x)
		if !p.accept(tokIdent, word) {
			return join(ps...), nil
		}
	}
}

func (p *parser) unaryPred() (query.Pred, error) {
	if p.accept(tokIdent, "not") {
		inner, err := p.unaryPred()
		if err != nil {
			return nil, err
		}
		return query.Not(inner), nil
	}
	if p.accept(tokPunct, "(") {
		inner, err := p.orPred()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")", "')' in predicate"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.cmp()
}

// comparisons maps each operator to its query constructor and to the
// operator that says the same with the operands swapped.
var comparisons = map[string]struct {
	build   func(attr string, v any) query.Pred
	flipped string
}{
	"==": {query.Eq, "=="},
	"!=": {query.Ne, "!="},
	"<":  {query.Lt, ">"},
	"<=": {query.Le, ">="},
	">":  {query.Gt, "<"},
	">=": {query.Ge, "<="},
}

func (p *parser) cmp() (query.Pred, error) {
	start := p.cur()
	lParam, lLit, err := p.operand()
	if err != nil {
		return nil, err
	}
	opTok := p.cur()
	op, ok := comparisons[opTok.text]
	if opTok.kind != tokPunct || !ok {
		return nil, errAt(opTok, "expected comparison operator, found %v", opTok)
	}
	p.pos++
	rParam, rLit, err := p.operand()
	if err != nil {
		return nil, err
	}
	switch {
	case (lParam == "") == (rParam == ""):
		return nil, errAt(start, "a comparison needs one parameter and one literal")
	case lParam == "":
		return comparisons[op.flipped].build(rParam, lLit), nil
	}
	return op.build(lParam, rLit), nil
}

// operand parses a parameter name (param != "") or a literal.
func (p *parser) operand() (param string, lit any, err error) {
	t := p.next()
	switch t.kind {
	case tokIdent:
		if strings.EqualFold(t.text, "true") || strings.EqualFold(t.text, "false") {
			return "", strings.EqualFold(t.text, "true"), nil
		}
		return t.text, nil, nil
	case tokNumber:
		// The lexer emits integer tokens; "." and digits make a decimal.
		text := t.text
		if p.accept(tokPunct, ".") {
			frac, err := p.expect(tokNumber, "", "fraction digits")
			if err != nil {
				return "", nil, err
			}
			text += "." + frac.text
		}
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return "", nil, errAt(t, "bad number %q", text)
		}
		return "", f, nil
	case tokString:
		return "", t.text, nil
	}
	return "", nil, errAt(t, "expected parameter, number or string, found %v", t)
}
