// Command perfbench is the repository's benchmark. It runs one workload
// from a seed for a fixed time, checks every answer independently of the
// solver, and prints every metric by name and unit; its last line is one
// JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload stp-tree --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it wraps each layer's public boundary, keeps a span per
// call in memory, writes the spans out at the end and reports the
// per-layer metrics. perfbench/run.sh builds and runs it from the root
// of a checkout.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/perfbench/spans"
	"repro/perfbench/stats"
)

// setupRepeats is how often a run sets its workload up; setup_s is the
// median, so a one-off stall does not read as a set-up regression.
const setupRepeats = 5

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what a run prints: human-readable lines for every
// metric (including the workload-specific names and the tail's
// percentile and sample count) and the final JSON object.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	want  map[string]string // metric → unit this run's JSON object must carry
	lines []string
}

// add records a metric; it goes into the JSON object when BENCHMARK.json
// lists it for this kind of run.
func (r *report) add(name string, v float64, unit string) {
	if u, ok := r.want[name]; ok {
		if u != unit {
			fatalf("metric %s has unit %s, BENCHMARK.json says %s", name, unit, u)
		}
		r.Metrics[name] = metric{v, unit}
	}
	r.note(name, v, unit, "")
}

// note prints a metric by name without putting it in the JSON object.
func (r *report) note(name string, v float64, unit, comment string) {
	line := fmt.Sprintf("metric %-28s %14.6g %-8s", name, v, unit)
	if comment != "" {
		line += "  # " + comment
	}
	r.lines = append(r.lines, line)
}

func (r *report) failures(reasons []string) {
	r.Failed = len(reasons)
	for i, why := range reasons {
		if i == 20 {
			r.lines = append(r.lines, fmt.Sprintf("failure ... %d more", len(reasons)-i))
			break
		}
		r.lines = append(r.lines, "failure "+why)
	}
}

func (r *report) print() {
	for name := range r.want {
		if _, ok := r.Metrics[name]; !ok {
			fatalf("BENCHMARK.json lists %s, which this run did not measure", name)
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.note("failed_ratio", float64(r.Failed)/math.Max(1, float64(r.Attempted)), "ratio",
		fmt.Sprintf("%d failed of %d attempted", r.Failed, r.Attempted))
	w := bufio.NewWriter(os.Stdout)
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintln(w, string(b))
	if err := w.Flush(); err != nil {
		fatalf("write result: %v", err)
	}
}

// run is what every workload gets: its options and where to write.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for spans and the optima log
	rep     *report
	rec     *spans.Recorder

	replayed []solved // serve-mix's traced solves outside the server
}

// timing reports the median, the tail percentile and the rate of a list
// of per-operation latencies under both the generic JSON names and the
// workload's own names.
func (r *run) timing(ops string, lat []float64, wall float64) {
	sort.Float64s(lat)
	p50 := stats.Median(lat)
	tail, pct, ok := stats.Tail(lat)
	if !ok {
		fatalf("%d %s in %.1f s: the tail needs more than %d; give the run more seconds", len(lat), ops, wall, stats.TailBeyond)
	}
	rate := float64(len(lat)) / wall
	r.rep.add("p50_s", p50, "s")
	r.rep.add("tail_s", tail, "s")
	r.rep.add("ops_per_s", rate, "1/s")
	single := strings.TrimSuffix(ops, "s")
	r.rep.note(single+"_p50_s", p50, "s", fmt.Sprintf("median of %d %s", len(lat), ops))
	r.rep.note(single+"_tail_s", tail, "s", fmt.Sprintf("p%d of %d %s; %d lie beyond it", pct, len(lat), ops, stats.TailBeyond))
	r.rep.note(ops+"_per_s", rate, "1/s", fmt.Sprintf("%d verified in %.2f s", len(lat), wall))
}

// setup runs build setupRepeats times, keeps the last result and
// reports the median set-up time.
func setup[T any](r *run, build func() (T, func())) T {
	var (
		times []float64
		sys   T
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, stop := build()
		times = append(times, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			stop()
		} else {
			sys = s
		}
	}
	r.rep.add("setup_s", stats.Median(times), "s")
	return sys
}

// peakRSS reports the process's resident high-water mark (VmHWM).
func (r *run) peakRSS() {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fatalf("read peak RSS: %v", err)
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				fatalf("parse VmHWM %q: %v", l, err)
			}
			r.rep.add("peak_rss_mb", kb/1024, "MB")
			return
		}
	}
	fatalf("no VmHWM in /proc/self/status")
}

// writeSpans writes the recorded spans of a traced run.
func (r *run) writeSpans(workload string) {
	path := filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.tsv", workload, r.seed))
	f, err := os.Create(path)
	if err != nil {
		fatalf("write spans: %v", err)
	}
	all := r.rec.Spans()
	if err := spans.WriteTSV(f, all); err != nil {
		f.Close()
		fatalf("write spans: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("write spans: %v", err)
	}
	r.rep.lines = append(r.rep.lines, fmt.Sprintf("spans %d written to %s", len(all), path))
}

// definition is the part of BENCHMARK.json the benchmark reads: the
// metrics each kind of run must report.
type definition struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDefinition(path string) (*definition, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var d definition
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &d, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	workload := flag.String("workload", "", "stp-tree or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "how long the run measures")
	trace := flag.Int("trace", 0, "1: record spans and report per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and the optima log")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("need --seconds > 0 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("create %s: %v", *out, err)
	}
	def, err := loadDefinition("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	rep := &report{Metrics: map[string]metric{}, want: map[string]string{}}
	list := def.EndToEnd
	if *trace == 1 {
		list = def.PerLayer
	}
	for _, m := range list {
		rep.want[m.Name] = m.Unit
	}
	r := &run{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, rep: rep}
	if r.trace {
		r.rec = spans.New()
	}
	switch *workload {
	case "stp-tree":
		runSolves(r, stpTree(r.seed))
	case "serve-mix":
		runServeMix(r)
	default:
		fatalf("unknown --workload %q (want stp-tree or serve-mix)", *workload)
	}
	if r.trace {
		r.writeSpans(*workload)
	} else {
		r.peakRSS()
	}
	r.rep.print()
}
