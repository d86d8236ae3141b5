package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// samples is a preallocated latency series in nanoseconds. It never grows
// during a measured window, so recording a sample does not allocate and
// allocs_per_txn counts the program's allocations only.
type samples struct {
	v       []int64
	end     []int64 // completion times (ns since t0), for series recorded with addAt
	dropped int64   // arrived after the buffer filled
}

func newSamples(capacity int) *samples { return &samples{v: make([]int64, 0, capacity)} }

// newTimedSamples is a series that also keeps when each operation
// completed, so a rate can be taken per slice of the window.
func newTimedSamples(capacity int) *samples {
	return &samples{v: make([]int64, 0, capacity), end: make([]int64, 0, capacity)}
}

// addAt records an operation that started at t0 and has just completed,
// and returns its latency.
func (s *samples) addAt(t0 time.Time) int64 {
	now := time.Now()
	ns := int64(now.Sub(t0))
	if len(s.v) < cap(s.v) {
		s.v = append(s.v, ns)
		s.end = append(s.end, now.UnixNano())
	} else {
		s.dropped++
	}
	return ns
}

func (s *samples) add(ns int64) {
	if len(s.v) < cap(s.v) {
		s.v = append(s.v, ns)
		return
	}
	s.dropped++
}

// merged returns the sorted union of several series.
func merged(parts ...*samples) []int64 {
	n := 0
	for _, p := range parts {
		n += len(p.v)
	}
	out := make([]int64, 0, n)
	for _, p := range parts {
		out = append(out, p.v...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of a
// sorted series, or 0 for an empty one.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentile applies the sample-count rule: the tail is reported at
// `want` only when at least ten samples lie beyond it; with fewer samples
// it falls back to the highest percentile that still has ten beyond it
// (the median when there are not even twenty). It returns the value and
// the percentile actually used.
func tailPercentile(sorted []int64, want float64) (int64, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, want
	}
	beyond := float64(n) * (1 - want/100)
	if beyond >= 10 {
		return percentile(sorted, want), want
	}
	if n < 20 {
		return percentile(sorted, 50), 50
	}
	used := 100 * float64(n-10) / float64(n)
	return sorted[n-11], used
}

// chunked cuts every series (each in arrival order) into k contiguous
// chunks and returns, for each chunk index, the sorted union over the
// series: k consecutive slices of the measured window.
func chunked(k int, parts ...*samples) [][]int64 {
	out := make([][]int64, k)
	for i := range out {
		var slice []*samples
		for _, p := range parts {
			lo, hi := len(p.v)*i/k, len(p.v)*(i+1)/k
			slice = append(slice, &samples{v: p.v[lo:hi]})
		}
		out[i] = merged(slice...)
	}
	return out
}

// calm picks, from one value per slice of a measured window, the value a
// quarter of the way in from the better end. The sandbox is shared: for
// seconds to minutes at a time a neighbour takes part of the processors
// and of the disk (the kernel's steal time goes from 0 to 10-20 %), and
// every slice that falls into such a stretch reads worse, never better.
// A quarter in from the better end is what the window measured while the
// machine was the program's own, and unlike the best slice it needs a
// quarter of the window to agree.
func calm(perSlice []float64, higherIsBetter bool) float64 {
	if len(perSlice) == 0 {
		return 0
	}
	c := append([]float64(nil), perSlice...)
	sort.Float64s(c)
	i := (len(c) - 1) / 4
	if higherIsBetter {
		i = len(c) - 1 - i
	}
	return c[i]
}

// rateSlices is how many equal time slices steadyRate cuts a window into.
const rateSlices = 20

// steadyRate is operations per second in the calm slices (see calm) of the
// window the timed series span.
func steadyRate(parts ...*samples) float64 {
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	for _, p := range parts {
		if len(p.end) > 0 {
			first, last = min(first, p.end[0]), max(last, p.end[len(p.end)-1])
		}
	}
	if last <= first {
		return 0
	}
	counts := make([]float64, rateSlices)
	for _, p := range parts {
		for _, t := range p.end {
			counts[min(rateSlices-1, int((t-first)*rateSlices/(last-first)))]++
		}
	}
	perSlice := float64(last-first) / rateSlices / 1e9
	for i := range counts {
		counts[i] /= perSlice
	}
	return calm(counts, true)
}

// sliceCount is how many slices a window of n samples is cut into: as many
// as leave perSlice samples each, at most limit, at least one.
func sliceCount(n, perSlice, limit int) int {
	return max(1, min(limit, n/perSlice))
}

// steadyPercentiles reports a latency series by its calm slices (see
// calm): the median from up to 20 slices of at least 250 samples, the tail
// from up to 10 slices of at least 2 500 (25 beyond each slice's p99). k is
// the number of tail slices.
func steadyPercentiles(parts ...*samples) (p50, tail, tailUsed float64, n, k int) {
	for _, p := range parts {
		n += len(p.v)
	}
	var p50s, tails []float64
	for _, c := range chunked(sliceCount(n, 250, 20), parts...) {
		p50s = append(p50s, usOf(percentile(c, 50)))
	}
	k = sliceCount(n, 2500, 10)
	for _, c := range chunked(k, parts...) {
		t, used := tailPercentile(c, 99)
		tails = append(tails, usOf(t))
		tailUsed = used
	}
	return calm(p50s, false), calm(tails, false), tailUsed, n, k
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// median of a float slice (copying); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// regSnap is a metrics-registry snapshot keyed by name.
type regSnap map[string]obs.Sample

func snapRegistry(r *obs.Registry) regSnap {
	out := regSnap{}
	if r == nil {
		return out
	}
	for _, s := range r.Snapshot() {
		out[s.Name] = s
	}
	return out
}

// regDelta is what the program's own counters and histograms recorded
// between two snapshots of one registry.
type regDelta struct{ before, after regSnap }

// counter returns the increase of a counter over the window.
func (d regDelta) counter(name string) float64 {
	return d.after[name].Value - d.before[name].Value
}

// gauge returns the reading at the end of the window.
func (d regDelta) gauge(name string) float64 { return d.after[name].Value }

// hist returns the observation sum and count a histogram gained over the
// window. Sums are in the histogram's own unit (seconds for durations).
func (d regDelta) hist(name string) (sum float64, count uint64) {
	a, b := d.after[name].Hist, d.before[name].Hist
	if a == nil {
		return 0, 0
	}
	if b == nil {
		return a.Sum, a.Count
	}
	return a.Sum - b.Sum, a.Count - b.Count
}

// histMeanUS is the mean of a duration histogram's window, in µs.
func (d regDelta) histMeanUS(name string) float64 {
	sum, n := d.hist(name)
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 1e6
}

// histMean is the mean of a unitless histogram's window.
func (d regDelta) histMean(name string) float64 {
	sum, n := d.hist(name)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
