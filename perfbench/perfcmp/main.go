// Command perfcmp compares two sets of benchmark runs made in alternating
// pairs, one set on the parent commit and one on a change, and applies
// the repository's rules for claiming a gain and for ruling out a
// regression:
//
//   - gain: at least 10 pairs, the change wins at least 9 in 10 of them
//     (ties count for neither side), and the medians differ by more than
//     the parent's interquartile range;
//   - no regression: for every end-to-end metric, the change's median is
//     no worse than the parent's by more than the metric's bound in
//     BENCHMARK.json. When the parent's spread is wider than the bound
//     the metric is unresolved, unless every change run beats every
//     parent run.
//
// Each input file holds one run per line, as the benchmark's last output
// line; other lines are skipped, so raw benchmark output can be
// concatenated. Line i of one file is paired with line i of the other.
//
//	go run ./perfcmp -benchmark ../BENCHMARK.json parent.jsonl change.jsonl
//
// It exits 1 when a metric regressed and 2 on bad input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/perfbench/stats"
)

// minPairs and winShare are the gain rule's thresholds.
const (
	minPairs = 10
	winShare = 0.9
)

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func readRuns(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil || res.Metrics == nil {
			continue
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// verdict is the comparison of one metric.
type verdict struct {
	Metric             string
	Unit               string
	Pairs, Wins        int
	Parent, Change     [3]float64 // q1, median, q3
	Worse              float64    // relative change of the median, positive = worse
	Bound              float64    // NaN for per-layer metrics
	Outcome            string
	ParentSpread       float64
	AllBetter, Regress bool
}

// compare applies the rules to one metric's paired values.
func compare(m metricDef, parent, change []float64) verdict {
	v := verdict{Metric: m.Name, Unit: m.Unit, Pairs: len(parent), Bound: math.NaN()}
	if m.Bound != nil {
		v.Bound = *m.Bound
	}
	sign := 1.0 // +1: lower is better
	if m.Better == "higher" {
		sign = -1
	}
	for i := range parent {
		if d := sign * (change[i] - parent[i]); d < 0 {
			v.Wins++
		}
	}
	v.Parent[0], v.Parent[1], v.Parent[2] = stats.Quartiles(parent)
	v.Change[0], v.Change[1], v.Change[2] = stats.Quartiles(change)
	iqr := v.Parent[2] - v.Parent[0]
	delta := sign * (v.Change[1] - v.Parent[1])
	v.Worse = delta / math.Abs(v.Parent[1])
	v.ParentSpread = iqr / math.Abs(v.Parent[1])
	v.AllBetter = true
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) >= 0 {
				v.AllBetter = false
			}
		}
	}
	gain := v.Pairs >= minPairs && float64(v.Wins) >= winShare*float64(v.Pairs) && delta < 0 && -delta > iqr
	switch {
	case gain:
		v.Outcome = "gain"
	case math.IsNaN(v.Bound):
		v.Outcome = "no bound (per-layer)"
	case v.ParentSpread > v.Bound && v.AllBetter:
		v.Outcome = "better in every run"
	case v.ParentSpread > v.Bound:
		v.Outcome = "unresolved: spread wider than bound"
	case v.Worse > v.Bound:
		v.Outcome = "REGRESSION"
		v.Regress = true
	default:
		v.Outcome = "no regression"
	}
	return v
}

func run(args []string, stdout io.Writer) (regressed bool, err error) {
	fs := flag.NewFlagSet("perfcmp", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition with directions and bounds")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, fmt.Errorf("usage: perfcmp [-benchmark BENCHMARK.json] parent.jsonl change.jsonl")
	}
	b, err := os.ReadFile(*benchPath)
	if err != nil {
		return false, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(b, &def); err != nil {
		return false, fmt.Errorf("parse %s: %w", *benchPath, err)
	}
	var sides [2][]result
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return false, err
		}
		sides[i], err = readRuns(f)
		f.Close()
		if err != nil {
			return false, fmt.Errorf("read %s: %w", path, err)
		}
	}
	n := min(len(sides[0]), len(sides[1]))
	if n == 0 {
		return false, fmt.Errorf("no runs to pair (%d parent, %d change)", len(sides[0]), len(sides[1]))
	}
	if len(sides[0]) != len(sides[1]) {
		fmt.Fprintf(stdout, "warning: %d parent and %d change runs; pairing the first %d\n", len(sides[0]), len(sides[1]), n)
	}
	var failed [2]int
	for s := range sides {
		for _, r := range sides[s][:n] {
			failed[s] += r.Failed
		}
	}
	fmt.Fprintf(stdout, "%d pairs; failed operations: parent %d, change %d\n", n, failed[0], failed[1])
	if failed[1] > failed[0] {
		fmt.Fprintln(stdout, "the change fails more operations than the parent: no gain can be claimed")
	}
	fmt.Fprintf(stdout, "%-26s %-12s %32s %32s %7s %8s  %s\n", "metric", "unit", "parent q1 / median / q3", "change q1 / median / q3", "wins", "worse", "verdict")
	for _, m := range append(append([]metricDef(nil), def.EndToEnd...), def.PerLayer...) {
		var pv, cv []float64
		for i := 0; i < n; i++ {
			p, okP := sides[0][i].Metrics[m.Name]
			c, okC := sides[1][i].Metrics[m.Name]
			if okP && okC {
				pv, cv = append(pv, p.Value), append(cv, c.Value)
			}
		}
		if len(pv) < 2 {
			continue
		}
		v := compare(m, pv, cv)
		if v.Outcome == "gain" && failed[1] > failed[0] {
			v.Outcome = "gain void: more failures"
		}
		regressed = regressed || v.Regress
		fmt.Fprintf(stdout, "%-26s %-12s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %3d/%-3d %+7.1f%%  %s\n",
			v.Metric, v.Unit, v.Parent[0], v.Parent[1], v.Parent[2], v.Change[0], v.Change[1], v.Change[2],
			v.Wins, v.Pairs, 100*v.Worse, v.Outcome)
	}
	return regressed, nil
}

func main() {
	regressed, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfcmp:", err)
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}
