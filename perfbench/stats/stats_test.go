package stats

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4)    == [1.0, 2.0, 3.0]
	// statistics.quantiles([5, 1], n=4)       == [0.0, 3.0, 6.0]
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := Quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianAndTail(t *testing.T) {
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median %v", m)
	}
	v := make([]float64, 40)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1)
	}
	val, pct, ok := Tail(v)
	if !ok || val != 30 || pct != 75 {
		t.Errorf("Tail of 1..40 = %v p%d %v, want 30 p75", val, pct, ok)
	}
	if _, _, ok := Tail(v[:10]); ok {
		t.Error("Tail of 10 values must report too few samples")
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}
