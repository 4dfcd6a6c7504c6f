// Package stats holds the order statistics the benchmark and its
// comparator report: medians, quartiles computed exactly as Python's
// statistics.quantiles(values, n=4) computes them, and the tail
// percentile that still has a fixed number of samples beyond it.
package stats

import (
	"math"
	"sort"
)

// TailBeyond is the number of samples that must lie beyond a reported
// tail percentile.
const TailBeyond = 10

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value (the mean of the two middle values
// for an even count); NaN for no values.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first, second and third quartile with the
// "exclusive" method, Python's default for statistics.quantiles. It
// needs at least two values; with fewer it returns NaNs.
func Quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(v)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1) // Python clamps to 1 .. n-1
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// Tail returns the highest percentile of v that has at least
// TailBeyond samples above it, together with that percentile (rounded
// down to a whole percent). ok is false when v has too few samples.
func Tail(v []float64) (value float64, pct int, ok bool) {
	n := len(v)
	if n <= TailBeyond {
		return math.NaN(), 0, false
	}
	s := sorted(v)
	return s[n-TailBeyond-1], 100 * (n - TailBeyond) / n, true
}
