package spans

import (
	"math/rand"
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	all := []Span{
		{Name: "root", Start: 0, End: 100, Parent: None},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a: another goroutine
		{Name: "a.1", Start: 15, End: 20, Parent: 1},
		{Name: "late", Start: 90, End: 120, Parent: 0}, // clipped to the parent
		{Name: "open", Start: 70, Parent: 0},           // never ended: zero length
	}
	want := []time.Duration{100 - 50 - 10, 25, 30, 5, 30, 0}
	got := SelfTimes(all)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", all[i].Name, got[i], want[i])
		}
	}
}

// On one goroutine spans nest without overlap, so the self times of a
// span and all its descendants add up to exactly its duration.
func TestSelfTimesOfSubtreeAddUp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var all []Span
	var build func(parent int, lo, hi time.Duration, depth int)
	build = func(parent int, lo, hi time.Duration, depth int) {
		id := len(all)
		all = append(all, Span{Name: "s", Start: lo, End: hi, Parent: parent})
		if depth == 0 {
			return
		}
		at := lo
		for at < hi {
			start := at + time.Duration(rng.Intn(20))
			end := start + time.Duration(1+rng.Intn(60))
			if end > hi {
				break
			}
			build(id, start, end, depth-1)
			at = end
		}
	}
	build(None, 0, 10000, 4)
	self := SelfTimes(all)
	sum := make([]time.Duration, len(all))
	for i := len(all) - 1; i >= 0; i-- {
		sum[i] += self[i]
		if p := all[i].Parent; p >= 0 {
			sum[p] += sum[i]
		}
	}
	for i, s := range all {
		if sum[i] != s.Dur() {
			t.Fatalf("span %d: subtree self times add to %d, duration %d", i, sum[i], s.Dur())
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	id := r.Begin("x", None, 0, 0)
	r.End(id)
	if id != None || r.Spans() != nil {
		t.Fatalf("nil recorder returned id %d, spans %v", id, r.Spans())
	}
}
