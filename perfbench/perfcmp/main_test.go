package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func series(base, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + step*float64(i%5-2)
	}
	return out
}

func TestCompareRules(t *testing.T) {
	bound := 0.1
	lower := metricDef{Name: "p50_s", Better: "lower", Bound: &bound}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: &bound}
	layer := metricDef{Name: "scip.self_s", Better: "lower"}
	for _, c := range []struct {
		name           string
		m              metricDef
		parent, change []float64
		want           string
	}{
		{"clear gain", lower, series(100, 1, 10), series(90, 1, 10), "gain"},
		{"gain needs ten pairs", lower, series(100, 1, 9), series(90, 1, 9), "no regression"},
		{"inside the parent's spread", lower, series(100, 4, 10), series(97, 4, 10), "no regression"},
		{"regression", lower, series(100, 1, 10), series(115, 1, 10), "REGRESSION"},
		{"higher is better", higher, series(100, 1, 10), series(115, 1, 10), "gain"},
		{"noisy parent", lower, series(100, 20, 10), series(104, 20, 10), "unresolved: spread wider than bound"},
		{"per-layer has no bound", layer, series(100, 1, 10), series(120, 1, 10), "no bound (per-layer)"},
	} {
		if got := compare(c.m, c.parent, c.change).Outcome; got != c.want {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}

func TestRunReadsBenchmarkOutput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := write("BENCHMARK.json", `{"end_to_end":[{"name":"p50_s","unit":"s","better":"lower","bound":0.1}],"per_layer":[]}`)
	var parent, change strings.Builder
	for i := 0; i < 10; i++ {
		parent.WriteString("metric p50_s 1.0 s\n")
		parent.WriteString(`{"correct":true,"attempted":5,"failed":0,"metrics":{"p50_s":{"value":1.0,"unit":"s"}}}` + "\n")
		change.WriteString(`{"correct":true,"attempted":5,"failed":0,"metrics":{"p50_s":{"value":1.5,"unit":"s"}}}` + "\n")
	}
	var out strings.Builder
	regressed, err := run([]string{"-benchmark", bench, write("a", parent.String()), write("b", change.String())}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed || !strings.Contains(out.String(), "10 pairs") {
		t.Fatalf("want a regression over 10 pairs, got:\n%s", out.String())
	}
}
