package snoop

import (
	"errors"
	"fmt"

	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/object"
	"repro/internal/rules"
)

// Compiler turns parsed Sentinel declarations into event-graph nodes and
// rule definitions — the run-time equivalent of the code the Sentinel
// pre- and post-processors generate at compile time.
type Compiler struct {
	// Det receives event definitions. Required.
	Det *detector.Detector
	// Rules receives rule definitions; nil makes top-level rule
	// declarations an error and silently skips rules declared inside
	// class bodies (events-only tools like snoopc).
	Rules *rules.Manager
	// Objects, when non-nil, gets classes declared by class blocks (with
	// no methods — bodies are bound in Go).
	Objects *object.Registry
	// Conditions and Actions bind the function names used in rule
	// declarations. The condition name "true" (or "") means no condition.
	Conditions map[string]rules.Condition
	Actions    map[string]rules.Action
	// Resolve maps instance names in instance-level events (e.g.
	// STOCK("IBM")) to OIDs; nil makes instance-level events an error. It
	// is called inside the detector's lock window, so it must not signal
	// the detector (a read-write transaction would: its begin is an event).
	Resolve func(name string) (event.OID, error)
}

// ErrNoRuleManager is returned for rule declarations without a manager.
var ErrNoRuleManager = errors.New("snoop: compiler has no rule manager")

// CompileSource parses and compiles a specification.
func (c *Compiler) CompileSource(src string) error {
	decls, err := Parse(src)
	if err != nil {
		return err
	}
	return c.Compile(decls)
}

// Compile applies the declarations as a batch: all classes, events, and
// rule event expressions are built inside one detector BulkBuild window
// (one structure-lock acquisition, one admission-index rebuild), and the
// collected rule specs are then installed through rules.Manager.DefineBatch
// (a second window that subscribes and pins every rule). Two lock windows
// total, independent of batch size.
//
// Classes and events up to the first error stay defined; rules are
// installed all together or, on any error, not at all.
func (c *Compiler) Compile(decls []Decl) error {
	// Object-registry class registration happens before the detector
	// window opens: the registry signals the detector itself
	// (DeclareClass), which must not run while BulkBuild holds the
	// structure lock.
	for _, d := range decls {
		if cd, ok := d.(*ClassDecl); ok {
			if err := c.registerClassObject(cd); err != nil {
				return err
			}
		}
	}
	var specs []rules.Spec
	err := c.Det.BulkBuild(func(b *detector.Bulk) error {
		for _, d := range decls {
			var err error
			switch d := d.(type) {
			case *ClassDecl:
				err = c.compileClass(b, d, &specs)
			case *EventDecl:
				err = c.compileEvent(b, d)
			case *RuleDecl:
				if c.Rules == nil {
					return fmt.Errorf("%w (rule %q)", ErrNoRuleManager, d.Name)
				}
				var spec rules.Spec
				if spec, err = c.ruleSpec(b, d); err == nil {
					specs = append(specs, spec)
				}
			default:
				err = fmt.Errorf("snoop: unknown declaration %T", d)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(specs) == 0 {
		return nil
	}
	_, err = c.Rules.DefineBatch(specs)
	return err
}

// registerClassObject registers the class with the object registry (a
// no-op without one). Never called while a detector BulkBuild window is
// open: the registry calls back into the detector.
func (c *Compiler) registerClassObject(d *ClassDecl) error {
	if c.Objects == nil {
		return nil
	}
	if _, err := c.Objects.DefineClass(d.Name, d.Super, d.Reactive); err != nil &&
		!errors.Is(err, object.ErrDuplicateClass) {
		return err
	}
	return nil
}

// compileClass declares the class and its event interface through g and
// collects the rules declared in the class body into *specs (skipped
// without a rule manager). The object registry is not touched here: Compile
// registers classes in a pre-pass before its lock window.
func (c *Compiler) compileClass(g *detector.Bulk, d *ClassDecl, specs *[]rules.Spec) error {
	g.DeclareClass(d.Name, d.Super)
	for _, ce := range d.Events {
		if ce.BeginName != "" {
			if _, err := g.DefinePrimitive(ce.BeginName, d.Name, ce.Signature(), event.Begin, 0); err != nil {
				return err
			}
		}
		if ce.EndName != "" {
			if _, err := g.DefinePrimitive(ce.EndName, d.Name, ce.Signature(), event.End, 0); err != nil {
				return err
			}
		}
	}
	if c.Rules != nil {
		for _, rd := range d.Rules {
			spec, err := c.ruleSpec(g, rd)
			if err != nil {
				return err
			}
			*specs = append(*specs, spec)
		}
	}
	return nil
}

func (c *Compiler) compileEvent(g *detector.Bulk, d *EventDecl) error {
	node, err := c.compileExpr(g, Normalize(d.Expr))
	if err != nil {
		return err
	}
	return g.Alias(d.Name, node.Name())
}

// builtinTxnEvents maps the transaction event identifiers.
var builtinTxnEvents = map[string]string{
	"beginTransaction":     event.BeginTransaction,
	"preCommitTransaction": event.PreCommit,
	"commitTransaction":    event.CommitTransaction,
	"abortTransaction":     event.AbortTransaction,
}

// compileExpr builds (or reuses) the event-graph subtree for an
// expression and returns its node. Subexpressions are named by their
// canonical text, so common subexpressions share nodes.
func (c *Compiler) compileExpr(g *detector.Bulk, e Expr) (detector.Node, error) {
	switch e := e.(type) {
	case *RefExpr:
		if txnName, ok := builtinTxnEvents[e.Name]; ok {
			return g.TransactionEvent(txnName)
		}
		return g.Lookup(e.Name)
	case *PrimExpr:
		var oid event.OID
		if e.Instance != "" {
			if c.Resolve == nil {
				return nil, fmt.Errorf("snoop: instance-level event %s needs a name resolver", e.Canon())
			}
			var err error
			oid, err = c.Resolve(e.Instance)
			if err != nil {
				return nil, fmt.Errorf("snoop: resolve instance %q: %w", e.Instance, err)
			}
		}
		mod := event.End
		if e.Begin {
			mod = event.Begin
		}
		return g.DefinePrimitive(e.Canon(), e.Class, e.Signature(), mod, oid)
	case *BinExpr:
		l, err := c.compileExpr(g, e.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExpr(g, e.R)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "and":
			return g.And(e.Canon(), l, r)
		case "or":
			return g.Or(e.Canon(), l, r)
		case "seq":
			return g.Seq(e.Canon(), l, r)
		default:
			return nil, fmt.Errorf("snoop: unknown operator %q", e.Op)
		}
	case *NotExpr:
		start, err := c.compileExpr(g, e.Start)
		if err != nil {
			return nil, err
		}
		mid, err := c.compileExpr(g, e.Mid)
		if err != nil {
			return nil, err
		}
		end, err := c.compileExpr(g, e.End)
		if err != nil {
			return nil, err
		}
		return g.Not(e.Canon(), start, mid, end)
	case *AnyExpr:
		kids := make([]detector.Node, len(e.Events))
		for i, ev := range e.Events {
			k, err := c.compileExpr(g, ev)
			if err != nil {
				return nil, err
			}
			kids[i] = k
		}
		return g.Any(e.Canon(), e.M, kids...)
	case *AperiodicExpr:
		start, err := c.compileExpr(g, e.Start)
		if err != nil {
			return nil, err
		}
		mid, err := c.compileExpr(g, e.Mid)
		if err != nil {
			return nil, err
		}
		end, err := c.compileExpr(g, e.End)
		if err != nil {
			return nil, err
		}
		if e.Star {
			return g.AStar(e.Canon(), start, mid, end)
		}
		return g.A(e.Canon(), start, mid, end)
	case *PeriodicExpr:
		start, err := c.compileExpr(g, e.Start)
		if err != nil {
			return nil, err
		}
		end, err := c.compileExpr(g, e.End)
		if err != nil {
			return nil, err
		}
		if e.Star {
			return g.PStar(e.Canon(), start, e.Period, end)
		}
		return g.P(e.Canon(), start, e.Period, end)
	case *PlusExpr:
		start, err := c.compileExpr(g, e.Start)
		if err != nil {
			return nil, err
		}
		return g.Plus(e.Canon(), start, e.Delta)
	default:
		return nil, fmt.Errorf("snoop: unknown expression %T", e)
	}
}

// ruleSpec resolves a rule declaration's bindings and attributes into a
// rules.Spec, defining the referenced transaction event through g when
// the rule triggers on one.
func (c *Compiler) ruleSpec(g *detector.Bulk, d *RuleDecl) (rules.Spec, error) {
	var cond rules.Condition
	switch {
	case d.CondExpr != "":
		var err error
		cond, err = PredicateCondition(d.CondExpr)
		if err != nil {
			return rules.Spec{}, fmt.Errorf("snoop: rule %q: %w", d.Name, err)
		}
	case d.Condition != "" && d.Condition != "true":
		var ok bool
		cond, ok = c.Conditions[d.Condition]
		if !ok {
			return rules.Spec{}, fmt.Errorf("snoop: rule %q: unbound condition function %q", d.Name, d.Condition)
		}
	}
	action, ok := c.Actions[d.Action]
	if !ok {
		return rules.Spec{}, fmt.Errorf("snoop: rule %q: unbound action function %q", d.Name, d.Action)
	}
	ctx, err := detector.ParseContext(d.Context)
	if err != nil {
		return rules.Spec{}, err
	}
	coupling, err := rules.ParseCoupling(d.Coupling)
	if err != nil {
		return rules.Spec{}, err
	}
	trigger, err := rules.ParseTrigger(d.Trigger)
	if err != nil {
		return rules.Spec{}, err
	}
	vis, err := rules.ParseVisibility(d.Visibility)
	if err != nil {
		return rules.Spec{}, err
	}
	eventName := d.Event
	if txnName, ok := builtinTxnEvents[eventName]; ok {
		if _, err := g.TransactionEvent(txnName); err != nil {
			return rules.Spec{}, err
		}
		eventName = txnName
	}
	return rules.Spec{
		Name:       d.Name,
		Event:      eventName,
		Condition:  cond,
		Action:     action,
		Context:    ctx,
		Coupling:   coupling,
		Priority:   d.Priority,
		Trigger:    trigger,
		Class:      d.Class,
		Visibility: vis,
	}, nil
}
