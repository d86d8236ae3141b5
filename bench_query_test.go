// Query-engine benchmarks: indexed access versus full extent scans at
// 1k/10k/100k objects, and the rule-condition payoff — a declarative
// Where condition answered from an index versus the equivalent
// hand-written function condition walking the extent. EXPERIMENTS.md
// records the measured shapes; `make bench-query` regenerates the
// committed numbers (BENCH_query.json) at full scale. The default size
// list keeps CI cheap; set SENTINEL_BENCH_QUERY to a comma-separated
// size list (e.g. "1000,10000,100000") for full runs.
//
// Selectivity discipline: every extent has ten objects per bucket, so an
// equality probe selects 10/n of the extent — 1% at 1k, 0.01% at 100k.
// The scan side evaluates the same predicate over a shadow attribute
// with identical values but no index, so both sides load the same data
// through the same MVCC machinery and differ only in access path.
package sentinel_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	sentinel "repro"
	"repro/internal/query"
)

// benchQuerySizes returns the extent sizes to benchmark.
func benchQuerySizes() []int {
	env := os.Getenv("SENTINEL_BENCH_QUERY")
	if env == "" {
		return []int{1000}
	}
	var out []int
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 100 {
			panic(fmt.Sprintf("SENTINEL_BENCH_QUERY=%q: want sizes >= 100", env))
		}
		out = append(out, n)
	}
	return out
}

// benchQueryDB opens a persistent database with n STOCK objects. Each
// object carries "bucket" (hash- and order-indexed) and "shadow"
// (identical values, unindexed) so indexed and scanned predicates select
// exactly the same rows. Seeding is batched to keep transactions small.
func benchQueryDB(b *testing.B, n int) (*sentinel.Database, int) {
	b.Helper()
	db, err := sentinel.Open(sentinel.Options{Dir: b.TempDir(), PoolSize: 256})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = db.Close() })
	if _, err := db.DefineClass("STOCK", "", false); err != nil {
		b.Fatal(err)
	}
	nBuckets := n / 10
	const batch = 2000
	for lo := 0; lo < n; lo += batch {
		tx, err := db.Begin()
		if err != nil {
			b.Fatal(err)
		}
		hi := lo + batch
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			v := float64(i % nBuckets)
			if _, err := db.New(tx, "STOCK", map[string]any{
				"sym": fmt.Sprintf("S%06d", i), "bucket": v, "shadow": v,
			}); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	tx, err := db.Begin()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateIndex(tx, "STOCK", "bucket", sentinel.HashIndex); err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateIndex(tx, "STOCK", "bucket", sentinel.OrderedIndex); err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return db, nBuckets
}

// runBenchQuery runs q once per iteration in a fresh snapshot
// transaction, rotating the key so no iteration repeats its predecessor's
// exact probe.
func runBenchQuery(b *testing.B, db *sentinel.Database, mk func(i int) sentinel.Q, wantRows int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := db.BeginSnapshot()
		if err != nil {
			b.Fatal(err)
		}
		rows, err := db.Query(tx, mk(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		if len(rows) != wantRows {
			b.Fatalf("query returned %d rows, want %d", len(rows), wantRows)
		}
	}
}

// BenchmarkQuery_IndexVsScan is the headline access-path comparison:
// "scan" answers an equality predicate on the unindexed shadow attribute
// (full extent walk), "probe" answers the identical predicate on the
// hash-indexed attribute, "range" answers a half-open interval on the
// ordered index. All three return the same row counts from the same
// extent. "scan_most" is the other end of the scan: an unindexed Where
// that keeps 90% of the extent, so nearly every row is handed out.
func BenchmarkQuery_IndexVsScan(b *testing.B) {
	for _, n := range benchQuerySizes() {
		db, nBuckets := benchQueryDB(b, n)
		b.Run(fmt.Sprintf("n=%d/scan", n), func(b *testing.B) {
			runBenchQuery(b, db, func(i int) sentinel.Q {
				return sentinel.Q{Class: "STOCK", Where: query.Eq("shadow", float64(i%nBuckets))}
			}, 10)
		})
		b.Run(fmt.Sprintf("n=%d/scan_most", n), func(b *testing.B) {
			runBenchQuery(b, db, func(int) sentinel.Q {
				return sentinel.Q{Class: "STOCK", Where: query.Ge("shadow", float64(nBuckets/10))}
			}, n-n/10)
		})
		b.Run(fmt.Sprintf("n=%d/probe", n), func(b *testing.B) {
			runBenchQuery(b, db, func(i int) sentinel.Q {
				return sentinel.Q{Class: "STOCK", Where: query.Eq("bucket", float64(i%nBuckets))}
			}, 10)
		})
		b.Run(fmt.Sprintf("n=%d/range", n), func(b *testing.B) {
			runBenchQuery(b, db, func(i int) sentinel.Q {
				lo := float64(i % (nBuckets - 4))
				return sentinel.Q{Class: "STOCK", Where: query.Between("bucket", lo, lo+4)}
			}, 50)
		})
	}
}

// BenchmarkQuery_Aggregate is a grouped count + sum over a 2 000-object
// class whose records share heap pages with a 50 000-object one, through a
// pool smaller than the small class's page span: every aggregate reads its
// class from disk, beside a directory 26 times its extent. One op is one
// aggregate in a fresh snapshot.
func BenchmarkQuery_Aggregate(b *testing.B) {
	const big, small, groups = 50000, 2000, 20
	db, err := sentinel.Open(sentinel.Options{Dir: b.TempDir(), PoolSize: 256})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = db.Close() })
	for _, c := range []string{"BIG", "SMALL"} {
		if _, err := db.DefineClass(c, "", false); err != nil {
			b.Fatal(err)
		}
	}
	// One SMALL object after every 25 BIG ones, so the two share pages.
	const batch = 2000
	for lo := 0; lo < big+small; lo += batch {
		tx, err := db.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for i := lo; i < lo+batch && i < big+small; i++ {
			class, attrs := "BIG", map[string]any{"sym": fmt.Sprintf("S%06d", i), "bucket": float64(i % 5000)}
			if i%26 == 25 {
				class, attrs = "SMALL", map[string]any{"grp": float64(i / 26 % groups), "val": float64(i)}
			}
			if _, err := db.New(tx, class, attrs); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	runBenchQuery(b, db, func(int) sentinel.Q {
		return sentinel.Q{Class: "SMALL", GroupBy: []string{"grp"},
			Aggs: []sentinel.Agg{{Op: query.Count}, {Op: query.Sum, Attr: "val"}}}
	}, groups)
}

// BenchmarkRules_IndexedCondition measures the condition-evaluation path
// of rule firing: a declarative Where condition (EXISTS over an indexed
// attribute, answered by a directory probe plus one verified load)
// against the equivalent hand-written function condition (extent walk
// evaluating the same predicate, early-exit on first match). The probed
// key lives in the last bucket, so the walk sees nBuckets objects before
// its first hit — the honest cost of not knowing where the data is.
func BenchmarkRules_IndexedCondition(b *testing.B) {
	for _, n := range benchQuerySizes() {
		db, nBuckets := benchQueryDB(b, n)
		key := float64(nBuckets - 1)
		pred := query.Eq("bucket", key)

		var fired atomic.Int64
		if err := db.DefineExplicitEvent("tick_where"); err != nil {
			b.Fatal(err)
		}
		if err := db.DefineExplicitEvent("tick_func"); err != nil {
			b.Fatal(err)
		}
		if _, err := db.DefineRule(sentinel.RuleSpec{
			Name: fmt.Sprintf("where-%d", n), Event: "tick_where",
			Where: &sentinel.RuleWhere{Class: "STOCK", Pred: pred},
			Action: func(x *sentinel.Execution) error {
				fired.Add(1)
				return nil
			},
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := db.DefineRule(sentinel.RuleSpec{
			Name: fmt.Sprintf("func-%d", n), Event: "tick_func",
			Condition: func(x *sentinel.Execution) bool {
				exists := false
				_ = db.ForEach(x.Txn, "STOCK", false, func(inst *sentinel.Instance) bool {
					if pred.Eval(inst.Attrs()) {
						exists = true
						return false
					}
					return true
				})
				return exists
			},
			Action: func(x *sentinel.Execution) error {
				fired.Add(1)
				return nil
			},
		}); err != nil {
			b.Fatal(err)
		}

		tick := func(b *testing.B, event string) {
			b.ReportAllocs()
			fired.Store(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, err := db.Begin()
				if err != nil {
					b.Fatal(err)
				}
				if err := db.RaiseEvent(tx, event, nil); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if fired.Load() != int64(b.N) {
				b.Fatalf("rule fired %d times over %d ticks", fired.Load(), b.N)
			}
		}
		b.Run(fmt.Sprintf("n=%d/where-indexed", n), func(b *testing.B) { tick(b, "tick_where") })
		b.Run(fmt.Sprintf("n=%d/func-scan", n), func(b *testing.B) { tick(b, "tick_func") })
	}
}
