// Command snoopc compiles a Sentinel event/rule specification, reports
// the events and rules it declares, and optionally emits the resulting
// event graph in Graphviz DOT form — the inspection half of the Sentinel
// pre-processor.
//
// Usage:
//
//	snoopc [-dot] [-instances NAME=OID,...] spec.snp
//
// Rules are checked for syntax but their condition/action functions are
// only name-checked (bodies live in application code). The specification
// is built the way a database builds it, in one detector lock window, and
// the subexpression-sharing count is reported. With -instances,
// instance-level events resolve only the listed names; otherwise every
// instance name is assigned a placeholder OID so the graph still builds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/debug"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/snoop"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snoopc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dot := fs.Bool("dot", false, "emit the event graph as Graphviz DOT on stdout")
	instances := fs.String("instances", "", "comma-separated NAME=OID bindings for instance-level events (unlisted names become errors)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: snoopc [-dot] [-instances NAME=OID,...] spec.snp\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "snoopc:", err)
		return 1
	}
	decls, err := snoop.Parse(string(src))
	if err != nil {
		fmt.Fprintln(stderr, "snoopc:", err)
		return 1
	}

	resolve, err := makeResolver(*instances)
	if err != nil {
		fmt.Fprintln(stderr, "snoopc:", err)
		return 2
	}
	det := detector.New()
	comp := &snoop.Compiler{Det: det, Resolve: resolve}
	var ruleCount int
	printRule := func(d *snoop.RuleDecl) {
		ruleCount++
		scope := ""
		if d.Class != "" {
			scope = fmt.Sprintf(" %s in class %s", orDefault(d.Visibility, "PUBLIC"), d.Class)
		}
		fmt.Fprintf(stdout, "rule  %-20s on %s (context=%s coupling=%s priority=%d trigger=%s)%s\n",
			d.Name, d.Event,
			orDefault(d.Context, "RECENT"), orDefault(d.Coupling, "IMMEDIATE"),
			d.Priority, orDefault(d.Trigger, "NOW"), scope)
	}
	// Rules are reported, not installed (snoopc has no rule manager); the
	// event side of every declaration is compiled.
	var compilable []snoop.Decl
	for _, d := range decls {
		switch d := d.(type) {
		case *snoop.RuleDecl:
			printRule(d)
		default:
			if cd, ok := d.(*snoop.ClassDecl); ok {
				for _, r := range cd.Rules {
					printRule(r)
				}
			}
			compilable = append(compilable, d)
		}
	}
	if err := comp.Compile(compilable); err != nil {
		fmt.Fprintln(stderr, "snoopc:", err)
		return 1
	}
	names := det.Events()
	sort.Strings(names)
	for _, n := range names {
		node, _ := det.Lookup(n)
		kind := "composite"
		if len(node.Kids()) == 0 {
			kind = "primitive"
		}
		fmt.Fprintf(stdout, "event %-40s %s\n", n, kind)
	}
	fmt.Fprintf(stdout, "%d events, %d rules\n", len(names), ruleCount)
	fmt.Fprintf(stdout, "%d node registrations shared, %d nodes live\n",
		det.SharedNodes(), det.LiveNodes())
	if *dot {
		if err := debug.DOT(det, stdout); err != nil {
			fmt.Fprintln(stderr, "snoopc:", err)
			return 1
		}
	}
	return 0
}

// makeResolver builds the instance-name resolver: explicit NAME=OID
// bindings when given (unlisted names are unresolvable), otherwise each
// distinct name is interned to its own placeholder OID.
func makeResolver(bindings string) (func(string) (event.OID, error), error) {
	if bindings == "" {
		interned := map[string]event.OID{}
		return func(name string) (event.OID, error) {
			if oid, ok := interned[name]; ok {
				return oid, nil
			}
			oid := event.OID(len(interned) + 1)
			interned[name] = oid
			return oid, nil
		}, nil
	}
	bound := map[string]event.OID{}
	for _, pair := range strings.Split(bindings, ",") {
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad -instances binding %q (want NAME=OID)", pair)
		}
		oid, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad OID in -instances binding %q: %v", pair, err)
		}
		bound[name] = event.OID(oid)
	}
	return func(name string) (event.OID, error) {
		if oid, ok := bound[name]; ok {
			return oid, nil
		}
		return 0, fmt.Errorf("instance %q not bound (pass -instances %s=OID)", name, name)
	}, nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
