// Package snoop implements the Sentinel event/rule specification language
// (the Snoop event language plus the paper's rule syntax) — the part of
// the system the Sentinel pre-processor provides. Specifications are
// parsed into an AST and compiled into event-graph construction and rule
// definition calls, replacing the C++ code generation of the original
// with direct API calls.
//
// Surface syntax (';' terminates declarations, so the Snoop sequence
// operator is written '>>'):
//
//	class STOCK reactive {
//	    event end(e1) sell_stock(qty);
//	    event begin(e2) && end(e3) set_price(price);
//	}
//
//	event e4 = e1 and e2;
//	event e5 = e1 >> e3;
//	event e6 = e1 or e2;
//	event e7 = not(e2)[e1, e3];
//	event e8 = any(2, e1, e2, e3);
//	event e9 = A(e1, e2, e3);
//	event e10 = A*(e1, e2, e3);
//	event e11 = P(e1, 100, e3);
//	event e12 = P*(e1, 100, e3);
//	event e13 = e1 + 100;
//	event ibm = begin STOCK("IBM").set_price(price);
//
//	rule R1(e4, cond1, action1, CUMULATIVE, DEFERRED, 10, NOW);
//
// beginTransaction, preCommitTransaction, commitTransaction and
// abortTransaction are built-in primitive events.
package snoop

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // punctuation: ( ) { } [ ] , ; = . >> + && * and the comparisons < <= > >= == !=
)

// token is one lexeme with its source position.
type token struct {
	kind tokKind
	text string
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// Error is a parse or compile error with source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("snoop: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

func errAt(t token, format string, args ...any) error {
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

// lex splits src into tokens. Comments run from // or # to end of line.
func lex(src string) ([]token, error) {
	var toks []token
	line, col := 1, 1
	i := 0
	n := len(src)
	advance := func(k int) {
		for j := 0; j < k; j++ {
			if src[i+j] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		i += k
	}
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '#' || (c == '/' && i+1 < n && src[i+1] == '/'):
			for i < n && src[i] != '\n' {
				advance(1)
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start, sl, sc := i, line, col
			for i < n && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				advance(1)
			}
			text := src[start:i]
			// A and P may carry a star: A*, P*.
			if (text == "A" || text == "P") && i < n && src[i] == '*' {
				text += "*"
				advance(1)
			}
			toks = append(toks, token{tokIdent, text, sl, sc})
		case unicode.IsDigit(rune(c)):
			start, sl, sc := i, line, col
			for i < n && unicode.IsDigit(rune(src[i])) {
				advance(1)
			}
			toks = append(toks, token{tokNumber, src[start:i], sl, sc})
		case c == '"':
			sl, sc := line, col
			advance(1)
			var b strings.Builder
			for i < n && src[i] != '"' {
				if src[i] == '\n' {
					return nil, &Error{Line: sl, Col: sc, Msg: "unterminated string"}
				}
				if src[i] == '\\' && i+1 < n && src[i+1] != '\n' {
					advance(1) // \" and \\ stand for the character after the backslash
				}
				b.WriteByte(src[i])
				advance(1)
			}
			if i >= n {
				return nil, &Error{Line: sl, Col: sc, Msg: "unterminated string"}
			}
			advance(1)
			toks = append(toks, token{tokString, b.String(), sl, sc})
		default:
			sl, sc := line, col
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch two {
			case ">>", "&&", "<=", ">=", "==", "!=":
				toks = append(toks, token{tokPunct, two, sl, sc})
				advance(2)
				continue
			}
			switch c {
			case '(', ')', '{', '}', '[', ']', ',', ';', '=', '.', '+', '|', '^', '*', '<', '>':
				toks = append(toks, token{tokPunct, string(c), sl, sc})
				advance(1)
			default:
				return nil, &Error{Line: sl, Col: sc, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	toks = append(toks, token{tokEOF, "", line, col})
	return toks, nil
}
