package main

import (
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestPercentileSelection(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestTailPercentileSampleCountRule(t *testing.T) {
	series := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	// 1000 samples: exactly ten lie beyond p99, so p99 stands.
	if v, used := tailPercentile(series(1000), 99); used != 99 || v != 990 {
		t.Errorf("n=1000: got value %d at p%v, want 990 at p99", v, used)
	}
	// 500 samples: only five beyond p99; fall back to the value with ten beyond it.
	if v, used := tailPercentile(series(500), 99); v != 490 || math.Abs(used-98) > 1e-9 {
		t.Errorf("n=500: got value %d at p%v, want 490 at p98", v, used)
	}
	// Fewer than twenty samples: the median is all the series supports.
	if v, used := tailPercentile(series(15), 99); used != 50 || v != 8 {
		t.Errorf("n=15: got value %d at p%v, want 8 at p50", v, used)
	}
}

func TestSteadyRateIgnoresAStall(t *testing.T) {
	// 10 s at 100 operations/s, except that second 4 is a stall with none.
	s := &samples{}
	for ms := int64(0); ms < 10000; ms += 10 {
		if ms/1000 != 4 {
			s.end = append(s.end, ms*1e6)
		}
	}
	if got := steadyRate(s); math.Abs(got-100) > 1.5 {
		t.Errorf("steadyRate = %v, want about 100 (the mean would be 90)", got)
	}
	if got := steadyRate(&samples{}); got != 0 {
		t.Errorf("steadyRate of nothing = %v, want 0", got)
	}
}

func TestCalmTakesTheBetterQuartile(t *testing.T) {
	// Nine slices; three fell into a neighbour's burst and read worse.
	lat := []float64{100, 102, 350, 101, 99, 400, 98, 103, 380}
	if got := calm(lat, false); got != 100 {
		t.Errorf("calm latency = %v, want 100 (the third best of nine)", got)
	}
	rate := []float64{50, 49, 14, 51, 50, 12, 52, 48, 13}
	if got := calm(rate, true); got != 50 {
		t.Errorf("calm rate = %v, want 50 (the third best of nine)", got)
	}
	if got := calm([]float64{7}, false); got != 7 {
		t.Errorf("calm of one slice = %v, want 7", got)
	}
	if got := calm(nil, true); got != 0 {
		t.Errorf("calm of nothing = %v, want 0", got)
	}
}

func TestHistogramDelta(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("wait_seconds", "", obs.DurationBuckets())
	c := reg.Counter("ops_total", "")
	h.Observe(0.5) // before the window: must not count
	c.Add(7)
	before := snapRegistry(reg)
	h.Observe(0.001)
	h.Observe(0.003)
	c.Add(5)
	d := regDelta{before, snapRegistry(reg)}
	sum, n := d.hist("wait_seconds")
	if n != 2 || math.Abs(sum-0.004) > 1e-12 {
		t.Errorf("hist delta = (%v, %d), want (0.004, 2)", sum, n)
	}
	if got := d.histMeanUS("wait_seconds"); math.Abs(got-2000) > 1e-6 {
		t.Errorf("mean = %v us, want 2000", got)
	}
	if got := d.counter("ops_total"); got != 5 {
		t.Errorf("counter delta = %v, want 5", got)
	}
	if sum, n := d.hist("absent"); sum != 0 || n != 0 {
		t.Errorf("absent histogram = (%v, %d), want zeros", sum, n)
	}
}

// TestSelfTime attributes a hand-built span tree:
//
//	root    [0,100]
//	  load    [10,30]
//	  invoke  [40,90]
//	    action [50,70]  (callback)
//	    action [60,80]  (callback, overlapping the first)
func TestSelfTime(t *testing.T) {
	c := newTracer(1).client(0)
	c.spans = []span{
		{st: stRoot, parent: -1, client: true, start: 0, end: 100},
		{st: stLoad, parent: 0, client: true, start: 10, end: 30},
		{st: stInvoke, parent: 0, client: true, start: 40, end: 90},
		{st: stAction, parent: -1, start: 50, end: 70}, // parent found by containment
		{st: stAction, parent: -1, start: 60, end: 80},
	}
	c.mu.Lock()
	c.finishLocked()
	c.mu.Unlock()
	want := map[stage]float64{
		stRoot:   30, // 100 - 20 (load) - 50 (invoke)
		stLoad:   20,
		stInvoke: 20, // 50 - the 30 its actions cover
		stAction: 30, // the two actions share [60,70]: 15 each
	}
	total := 0.0
	for st, w := range want {
		if got := c.agg[st].totalNS; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s: self total %v, want %v", stageNames[st], got, w)
		}
		total += c.agg[st].totalNS
	}
	if total != 100 || c.rootNS != 100 {
		t.Errorf("stage totals sum to %v for a root of %d, want 100", total, c.rootNS)
	}
	if got := c.agg[stAction].calls; got != 2 {
		t.Errorf("action calls = %d, want 2", got)
	}
	// Unweighted self time per call keeps each action's own 20.
	if got := c.agg[stAction].self; len(got) != 2 || got[0] != 20 || got[1] != 20 {
		t.Errorf("action self samples = %v, want [20 20]", got)
	}
}

func TestCarveKeepsTheSum(t *testing.T) {
	st := &stageTable{rootNS: 100}
	st.agg[stCommit] = stageAgg{calls: 2, totalNS: 60}
	if moved := st.carve(stCommit, stForceWait, 45, 2); moved != 45 {
		t.Errorf("moved %v, want 45", moved)
	}
	if moved := st.carve(stCommit, stForceWait, 45, 2); moved != 15 {
		t.Errorf("second carve moved %v, want the remaining 15", moved)
	}
	if st.agg[stCommit].totalNS != 0 || st.agg[stForceWait].totalNS != 60 {
		t.Errorf("after carving: commit %v, force wait %v", st.agg[stCommit].totalNS, st.agg[stForceWait].totalNS)
	}
}

// opHash folds a generated operation sequence into one number (FNV-1a
// over the fields the program will see), so tests can assert that a seed
// fixes the inputs and that different seeds differ.
type opHash uint64

func newOpHash() opHash { return 0xcbf29ce484222325 }

func (h *opHash) add(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= 0x100000001b3
		v >>= 8
	}
	*h = opHash(x)
}

func (h *opHash) addString(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= 0x100000001b3
	}
	*h = opHash(x)
}

// opSequenceHash folds what the program under test would be fed for a
// seed: the generated rule base, the event stream, and the clients' draws.
func opSequenceHash(seed uint64) opHash {
	h := newOpHash()
	rules, src := genDetectRules(seed, 8, 200)
	h.addString(src)
	h.add(uint64(len(rules)))
	stream := newDetStream(seed, 8)
	g := stream.generator()
	for i := 0; i < 2000; i++ {
		st := g.Next()
		h.add(uint64(st.Kind))
		h.addString(st.Class)
		h.addString(st.Method)
		h.add(uint64(st.Object))
	}
	for client := uint64(0); client < 2; client++ {
		r := newRng(seed, client)
		for i := 0; i < 2000; i++ {
			h.add(uint64(r.intn(10000)))
		}
	}
	return h
}

func TestGeneratorDeterminism(t *testing.T) {
	if a, b := opSequenceHash(1), opSequenceHash(1); a != b {
		t.Errorf("seed 1 hashed to %x and %x", a, b)
	}
	if a, b := opSequenceHash(1), opSequenceHash(2); a == b {
		t.Errorf("seeds 1 and 2 both hashed to %x", a)
	}
	// Two clients of one seed must not draw the same stream.
	if a, b := newRng(1, 0).next(), newRng(1, 1).next(); a == b {
		t.Errorf("client streams coincide: %x", a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the program's
// own metric and workload tables from drifting apart.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, program has %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the program", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: file has %+v, program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the file, %d in the program", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := bf.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: file has %+v, program has %+v", i, m, d)
		}
	}
}

// TestSmoke runs all four workloads at 1/100 scale, untraced and traced,
// so that `go test` keeps the benchmark compiling and its checks passing.
func TestSmoke(t *testing.T) {
	start := time.Now()
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for _, w := range workloads {
		var prefix [2][]uint64
		for i, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, seconds: 0.5, trace: traced, scale: 0.01, outDir: t.TempDir(), log: io.Discard}
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: %d failed of %d attempted: %v", w.name, traced, rep.failed, rep.attempted, rep.failures)
			}
			prefix[i] = rep.ruleCounts
			if !traced {
				for _, d := range endToEnd {
					if v := rep.e2e[d.name]; !(v > 0) {
						t.Errorf("%s: %s = %v, want a positive number", w.name, d.name, v)
					}
				}
				continue
			}
			for name := range rep.layer {
				if !known[name] {
					t.Errorf("%s reports %s, which BENCHMARK.json does not list", w.name, name)
				}
			}
			if share := rep.layer["attributed_share"]; share < 0.5 {
				t.Errorf("%s: only %.0f%% of traced time attributed", w.name, 100*share)
			}
		}
		// The same seed must fire every rule equally often on the replayed
		// prefix whether or not the run is traced.
		if len(prefix[0]) != len(prefix[1]) {
			t.Errorf("%s: %d rule counts untraced, %d traced", w.name, len(prefix[0]), len(prefix[1]))
		}
		for r := range prefix[0] {
			if r < len(prefix[1]) && prefix[0][r] != prefix[1][r] {
				t.Errorf("%s: rule %d fired %d times untraced and %d traced on the same prefix", w.name, r, prefix[0][r], prefix[1][r])
				break
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, want under 10 s", d)
	}
}
