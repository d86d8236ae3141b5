package detector

import (
	"testing"

	"repro/internal/event"
)

// TestRecentDetectionAllocatesOnlyItsComposite pins what a RECENT
// detection costs: the composite occurrence it emits, one allocation, and
// nothing else — stores overwrite in place, a pair is ordered without a
// sort, and ANY keeps its candidates on the stack. The primitives' own
// occurrences are measured separately and subtracted.
func TestRecentDetectionAllocatesOnlyItsComposite(t *testing.T) {
	build := func(withOps bool) (*Detector, *int) {
		d := New()
		d.DeclareClass("C", "")
		var prims [3]Node
		for i, name := range []string{"a", "b", "c"} {
			n, err := d.DefinePrimitive(name, "C", "m"+name, event.End, 0)
			if err != nil {
				t.Fatal(err)
			}
			prims[i] = n
		}
		count := new(int)
		sub := SubscriberFunc(func(*event.Occurrence, Context) { *count++ })
		subscribe := func(n Node, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Subscribe(n.Name(), Recent, sub); err != nil {
				t.Fatal(err)
			}
		}
		if !withOps {
			// The same primitives, admitted by direct subscribers instead.
			for _, p := range prims {
				subscribe(p, nil)
			}
			return d, count
		}
		subscribe(d.And("and", prims[0], prims[1]))
		subscribe(d.Seq("seq", prims[0], prims[1]))
		subscribe(d.Any("any", 2, prims[0], prims[1], prims[2]))
		return d, count
	}
	round := func(d *Detector) {
		d.SignalMethod("C", "ma", event.End, 1, nil, 0)
		d.SignalMethod("C", "mb", event.End, 1, nil, 0)
	}
	const runs = 500
	measure := func(withOps bool) (allocs, perRound float64) {
		d, count := build(withOps)
		round(d) // both sides present from here on
		*count = 0
		allocs = testing.AllocsPerRun(runs, func() { round(d) })
		return allocs, float64(*count) / (runs + 1) // AllocsPerRun's warm-up call counts too
	}
	base, _ := measure(false)
	got, composites := measure(true)
	// AND re-detects on each side, SEQ once per b, ANY(2) on each signal.
	if composites != 5 {
		t.Fatalf("%v composites per round, want 5", composites)
	}
	if extra := got - base; extra != composites {
		t.Fatalf("a round allocates %v objects beyond its primitives for %v composites, want exactly one each", extra, composites)
	}
}
