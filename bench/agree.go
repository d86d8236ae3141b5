package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is BENCHMARK.json at the repository root: the contract
// between this benchmark and whatever runs it.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []e2eJSON      `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	benchmarkPath = "../BENCHMARK.json"
	minBound      = 0.10
	maxBound      = 0.25
)

func readBenchmarkFile() (*benchmarkFile, error) {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	return &bf, nil
}

func (bf *benchmarkFile) write() error {
	out, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(benchmarkPath, append(out, '\n'), 0o644)
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the acceptance procedure uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	ld := len(x)
	if ld < 2 {
		if ld == 1 {
			return x[0], x[0], x[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j, delta := i*(ld+1)/4, i*(ld+1)%4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runSet runs every workload n times untraced, each run in its own
// process and with its own seed, and returns values[workload][metric].
func runSet(cfg config, n int, firstSeed uint64) (map[string]map[string][]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, w := range workloads {
		out[w.name] = map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := firstSeed + uint64(i)
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(cfg.seconds), "--trace", "0", "--out", cfg.outDir)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s seed %d: %w\n%s", w.name, seed, err, stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct bool              `json:"correct"`
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return nil, fmt.Errorf("%s seed %d: last line is not the result object: %w", w.name, seed, err)
			}
			if !res.Correct {
				return nil, fmt.Errorf("%s seed %d: outputs incorrect", w.name, seed)
			}
			for name, m := range res.Metrics {
				out[w.name][name] = append(out[w.name][name], m.Value)
			}
			fmt.Fprintf(cfg.log, "  %s seed %d done\n", w.name, seed)
		}
	}
	return out, nil
}

// runAgree is the calibration and agreement tool: two sets of n runs per
// workload on the same code. It prints median and quartiles per metric
// and workload, writes each metric's bound into BENCHMARK.json as three
// times the widest inter-quartile spread seen (at least 10 %, at most the
// contract's 25 %), and fails if a spread exceeds its bound or the two
// sets' medians differ, in either direction, by more than it.
func runAgree(cfg config, n int) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	cfg.seconds = float64(bf.RunSeconds)
	if abs, err := filepath.Abs(cfg.outDir); err == nil {
		cfg.outDir = abs
	}
	var sets [2]map[string]map[string][]float64
	for s := range sets {
		fmt.Fprintf(cfg.log, "set %d: %d runs per workload, %g s each\n", s+1, n, cfg.seconds)
		if sets[s], err = runSet(cfg, n, uint64(1+s*n)); err != nil {
			return err
		}
	}
	// shift is how much worse the second set's median is than the first's:
	// up for a cost, down for a rate.
	type stat struct{ q1, q2, q3, spread float64 }
	stats := func(w, m string) (st [2]stat, shift float64) {
		for s := range sets {
			q1, q2, q3 := quartiles(sets[s][w][m])
			st[s] = stat{q1, q2, q3, ratio(q3-q1, q2)}
		}
		return st, ratio(st[1].q2-st[0].q2, st[0].q2)
	}
	widest := map[string]float64{}
	fmt.Fprintf(cfg.log, "%-17s %-15s %3s %14s %14s %14s %8s %8s\n",
		"workload", "metric", "set", "q1", "median", "q3", "spread", "shift")
	for _, w := range workloads {
		for _, d := range endToEnd {
			st, shift := stats(w.name, d.name)
			if d.better == "higher" {
				shift = -shift
			}
			for s := range st {
				// A pairing that only repeats txn_* still counts towards the
				// bound, which holds on every workload, but is not printed twice.
				if d.on == "" || d.on == w.name {
					fmt.Fprintf(cfg.log, "%-17s %-15s %3d %14.4f %14.4f %14.4f %7.1f%% %+7.1f%%\n",
						w.name, d.name, s+1, st[s].q1, st[s].q2, st[s].q3, 100*st[s].spread, 100*shift)
				}
				widest[d.name] = math.Max(widest[d.name], st[s].spread)
			}
		}
	}
	var problems []string
	for i := range bf.EndToEnd {
		m := &bf.EndToEnd[i]
		m.Bound = math.Min(maxBound, math.Max(minBound, math.Ceil(300*widest[m.Name])/100))
		if m.Name == "setup_s" {
			m.Bound = maxBound // the largest bound: set-up is timed a few times per run, not thousands
		}
		for _, w := range workloads {
			st, shift := stats(w.name, m.Name)
			if m.Better == "higher" {
				shift = -shift
			}
			for s := range st {
				if m.Name != "setup_s" && st[s].spread > m.Bound {
					problems = append(problems, fmt.Sprintf("%s %s set %d: spread %.1f%% exceeds the bound %.0f%%", w.name, m.Name, s+1, 100*st[s].spread, 100*m.Bound))
				}
			}
			if math.Abs(shift) > m.Bound {
				problems = append(problems, fmt.Sprintf("%s %s: the second set's median is %+.1f%% (worse is +) from the first's, bound %.0f%%", w.name, m.Name, 100*shift, 100*m.Bound))
			}
		}
	}
	if err := bf.write(); err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "bounds written to %s:", benchmarkPath)
	for _, m := range bf.EndToEnd {
		fmt.Fprintf(cfg.log, " %s=%.2f", m.Name, m.Bound)
	}
	fmt.Fprintln(cfg.log)
	if len(problems) > 0 {
		return fmt.Errorf("the two sets disagree:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Fprintln(cfg.log, "the two sets agree within the bounds")
	return nil
}
