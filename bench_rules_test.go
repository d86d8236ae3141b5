// Rule-scale benchmarks: loading and signalling against rule bases of
// 1k/10k/100k rules whose event expressions overlap pairwise (~50% of
// operator registrations are satisfied by an existing node after
// canonical normalization). EXPERIMENTS.md records the measured shapes;
// `make bench-rules` regenerates the committed numbers at full scale.
// The default scale list keeps CI cheap; set SENTINEL_BENCH_RULES to a
// comma-separated count list (e.g. "1000,10000,100000") for full runs.
package sentinel_test

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	sentinel "repro"
	"repro/internal/event"
)

// benchRuleCounts returns the rule-base sizes to benchmark.
func benchRuleCounts() []int {
	env := os.Getenv("SENTINEL_BENCH_RULES")
	if env == "" {
		return []int{1000}
	}
	var out []int
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			panic(fmt.Sprintf("SENTINEL_BENCH_RULES=%q: want positive counts", env))
		}
		out = append(out, n)
	}
	return out
}

// genRuleSpec builds a Sentinel specification with nRules rules. Rules
// come in pairs on the same conjunction written in swapped operand
// order — "pA and pB" vs "pB and pA" — so with canonical normalization
// half of all operator registrations hit an existing node, while every
// pair of pairs uses a distinct primitive combination (the rule base
// grows, it does not cycle). The primitive pool is sized so distinct
// pairs never run out.
func genRuleSpec(nRules int) string {
	nPairs := (nRules + 1) / 2
	nPrims := 2
	for nPrims*(nPrims-1)/2 < nPairs {
		nPrims++
	}
	var sb strings.Builder
	sb.WriteString("class C reactive {\n")
	for i := 0; i < nPrims; i++ {
		fmt.Fprintf(&sb, "event end(p%d) m%d();\n", i, i)
	}
	sb.WriteString("}\n")
	pa, pb := 0, 1
	for r := 0; r < nRules; r++ {
		if r%2 == 0 {
			fmt.Fprintf(&sb, "event x%d = p%d and p%d;\n", r, pa, pb)
		} else {
			fmt.Fprintf(&sb, "event x%d = p%d and p%d;\n", r, pb, pa)
			pb++
			if pb == nPrims {
				pa++
				pb = pa + 1
			}
		}
		fmt.Fprintf(&sb, "rule R%d(x%d, true, noop);\n", r, r)
	}
	return sb.String()
}

func benchRuleDB(b *testing.B) *sentinel.Database {
	b.Helper()
	db, err := sentinel.Open(sentinel.Options{})
	if err != nil {
		b.Fatal(err)
	}
	db.BindAction("noop", func(*sentinel.Execution) error { return nil })
	return db
}

// heapMB forces a collection and returns the resident heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// BenchmarkRules_BulkLoad measures LoadRules: parse plus one detector
// lock window plus one rule batch. ns/op is the whole load; the
// ns/rule, shared-node fraction, and resident-heap metrics are reported
// alongside.
func BenchmarkRules_BulkLoad(b *testing.B) {
	for _, n := range benchRuleCounts() {
		b.Run(fmt.Sprintf("rules%d", n), func(b *testing.B) {
			spec := genRuleSpec(n)
			before := heapMB()
			var shared, live, after float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := benchRuleDB(b)
				b.StartTimer()
				if err := db.LoadRules(spec); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				shared = float64(db.Detector().SharedNodes())
				live = float64(db.Detector().LiveNodes())
				after = heapMB()
				_ = db.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/rule")
			b.ReportMetric(shared/float64(n), "shared-frac")
			b.ReportMetric(live, "nodes")
			b.ReportMetric(after-before, "MB-resident")
		})
	}
}

// BenchmarkRules_LiveLoad loads the rule base onto a detector that is
// actively signalling: one primitive occurrence is delivered after every
// rule definition (seq: one Exec per rule) or after the single batch
// (bulk). Every definition invalidates the admission index, so on the seq
// side every interleaved signal pays a rebuild; the whole-specification
// load invalidates once and the one signal after it rebuilds once.
func BenchmarkRules_LiveLoad(b *testing.B) {
	for _, n := range benchRuleCounts() {
		spec := genRuleSpec(n)
		decls := strings.Split(spec, "\n")
		// Split the flat spec into per-declaration chunks for the seq side:
		// the class block first, then event+rule pairs.
		classEnd := 0
		for i, l := range decls {
			if l == "}" {
				classEnd = i + 1
				break
			}
		}
		classBlock := strings.Join(decls[:classEnd], "\n")
		rest := decls[classEnd:]
		b.Run(fmt.Sprintf("seq/rules%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := benchRuleDB(b)
				if err := db.Exec(classBlock); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for j := 0; j+1 < len(rest); j += 2 {
					if err := db.Exec(rest[j] + "\n" + rest[j+1]); err != nil {
						b.Fatal(err)
					}
					db.Detector().SignalMethod("C", "m0()", event.End, 1, nil, 1)
				}
				b.StopTimer()
				_ = db.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/rule")
		})
		b.Run(fmt.Sprintf("bulk/rules%d", n), func(b *testing.B) {
			ruleBlock := strings.Join(rest, "\n")
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := benchRuleDB(b)
				if err := db.Exec(classBlock); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := db.LoadRules(ruleBlock); err != nil {
					b.Fatal(err)
				}
				db.Detector().SignalMethod("C", "m0()", event.End, 1, nil, 1)
				b.StopTimer()
				_ = db.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/rule")
		})
	}
}

// BenchmarkRules_SignalWithRuleBase is BenchmarkE1_PrimitiveSignal with a
// large resident rule base: one primitive with one subscriber is
// signalled while n rules (and their shared event graph) stay loaded.
// The admission index keeps the per-signal cost independent of rule
// count; the acceptance bound is 2× the small-base figure.
func BenchmarkRules_SignalWithRuleBase(b *testing.B) {
	for _, n := range benchRuleCounts() {
		b.Run(fmt.Sprintf("rules%d", n), func(b *testing.B) {
			db := benchRuleDB(b)
			defer db.Close()
			if err := db.LoadRules(genRuleSpec(n)); err != nil {
				b.Fatal(err)
			}
			// A dedicated primitive outside every rule's expression, with
			// one drain subscriber — the E1 shape.
			if err := db.Exec("class S reactive { event end(sig) probe(); }"); err != nil {
				b.Fatal(err)
			}
			if _, err := db.Detector().Subscribe("sig", sentinel.Recent, drainSub()); err != nil {
				b.Fatal(err)
			}
			params := event.NewParams("price", 42.0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Detector().SignalMethod("S", "probe()", event.End, 1, params, 1)
			}
		})
	}
}

// genDeferredSpec builds a specification with n DEFERRED rules, each on a
// primitive event of its own — n distinct A*(beginTransaction, p,
// preCommitTransaction) rewrites, all bracketing every transaction.
func genDeferredSpec(n int) string {
	var sb strings.Builder
	sb.WriteString("class C reactive {\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "event end(p%d) m%d();\n", i, i)
	}
	sb.WriteString("}\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "rule D%d(p%d, true, noop, RECENT, DEFERRED);\n", i, i)
	}
	return sb.String()
}

// txnBracket runs one empty transaction: beginTransaction, preCommit,
// commit, flush — what every transaction pays before it does anything.
func txnBracket(tb testing.TB, db *sentinel.Database) {
	tx, err := db.Begin()
	if err != nil {
		tb.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkRules_TxnBracket measures an empty Begin+Commit against a
// resident base of deferred rules. None of them is signalled, so the cost
// must not depend on how many there are.
func BenchmarkRules_TxnBracket(b *testing.B) {
	for _, n := range []int{0, 1000, 10000} {
		b.Run(fmt.Sprintf("deferred=%d", n), func(b *testing.B) {
			db := benchRuleDB(b)
			defer db.Close()
			if err := db.LoadRules(genDeferredSpec(n)); err != nil {
				b.Fatal(err)
			}
			txnBracket(b, db)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txnBracket(b, db)
			}
		})
	}
}

// TestTxnBracketAllocsIndependentOfRuleCount is the machine-independent
// guard behind that benchmark: an empty transaction allocates the same
// with 2 000 deferred rules loaded as with none, give or take the two
// transaction events that only exist once a deferred rule does.
func TestTxnBracketAllocsIndependentOfRuleCount(t *testing.T) {
	allocs := func(n int) float64 {
		db, err := sentinel.Open(sentinel.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		db.BindAction("noop", func(*sentinel.Execution) error { return nil })
		if err := db.LoadRules(genDeferredSpec(n)); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() { txnBracket(t, db) })
	}
	none, many := allocs(0), allocs(2000)
	if many-none > 4 || none-many > 4 {
		t.Fatalf("an empty transaction allocates %.0f objects with no deferred rules and %.0f with 2000: the bracket depends on the rule base", none, many)
	}
}
