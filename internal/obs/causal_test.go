package obs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestEnableCausalStampsEvents(t *testing.T) {
	sink := &MemSink{}
	tr := NewTracer(sink)
	tr.Emit(Event{Kind: KindRunStart})
	tr.EnableCausal(3)
	tr.Emit(Event{Kind: KindDispatch, Rank: 1})
	tr.Emit(Event{Kind: KindOutcome, Rank: 1})
	evs := sink.Events()
	if evs[0].Clock != 0 || evs[0].Orig != 0 {
		t.Fatalf("pre-causal event stamped: %+v", evs[0])
	}
	if evs[1].Clock != 1 || evs[1].Orig != 3 {
		t.Fatalf("first causal event: %+v", evs[1])
	}
	if evs[2].Clock != 2 || evs[2].Orig != 3 {
		t.Fatalf("second causal event: %+v", evs[2])
	}
}

func TestClockSendRecvLamportRules(t *testing.T) {
	tr := NewTracer(&MemSink{})
	tr.EnableCausal(1)
	if c := tr.ClockSend(); c != 1 {
		t.Fatalf("first send clock %d", c)
	}
	// A receive advances the local clock to max(local, remote).
	tr.ClockRecv(10)
	if c := tr.ClockSend(); c != 11 {
		t.Fatalf("send after recv(10): clock %d", c)
	}
	// A stale remote clock (behind the local one) is ignored.
	tr.ClockRecv(3)
	if c := tr.ClockSend(); c != 12 {
		t.Fatalf("send after stale recv: clock %d", c)
	}
	// Zero remote clock (pre-causal peer or v1 frame) is ignored too.
	tr.ClockRecv(0)
	if c := tr.ClockSend(); c != 13 {
		t.Fatalf("send after recv(0): clock %d", c)
	}
}

func TestCausalNilAndDisabledNoops(t *testing.T) {
	var tr *Tracer
	tr.EnableCausal(1)
	tr.ClockRecv(5)
	if c := tr.ClockSend(); c != 0 {
		t.Fatalf("nil tracer send clock %d", c)
	}
	live := NewTracer(&MemSink{})
	if c := live.ClockSend(); c != 0 {
		t.Fatalf("non-causal tracer send clock %d", c)
	}
}

func TestEventJSONClockOrigRoundTrip(t *testing.T) {
	ev := Event{Seq: 2, Tick: 5, Wall: 0.5, Kind: KindWorkerShip, Rank: 2, Dual: -3, Clock: 41, Orig: 2}
	line := ev.AppendJSON(nil)
	got, err := ParseLine(line)
	if err != nil {
		t.Fatalf("parse %s: %v", line, err)
	}
	if got != ev {
		t.Fatalf("roundtrip mismatch:\n in: %+v\nout: %+v", ev, got)
	}
}

func TestEventJSONOmitsZeroClock(t *testing.T) {
	// Single-process events must encode exactly as before the causal
	// fields existed — the bit-identical-trace property depends on it.
	line := string(Event{Seq: 1, Tick: 2, Kind: KindDispatch, Rank: 1}.AppendJSON(nil))
	if strings.Contains(line, "clock") || strings.Contains(line, "orig") {
		t.Fatalf("zero clock/orig encoded: %s", line)
	}
}

func TestReadTraceDetectsTruncation(t *testing.T) {
	a := Event{Kind: KindRunStart}.AppendJSON(nil)
	b := Event{Seq: 1, Tick: 1, Kind: KindRunEnd}.AppendJSON(nil)
	whole := string(a) + "\n" + string(b) + "\n"

	evs, err := ReadTrace(strings.NewReader(whole))
	if err != nil || len(evs) != 2 {
		t.Fatalf("clean trace: %d events, err %v", len(evs), err)
	}
	// Cut the file mid-record, as a killed process leaves it.
	cut := whole[:len(whole)-8]
	evs, err = ReadTrace(strings.NewReader(cut))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated trace not detected: err %v", err)
	}
	if len(evs) != 1 {
		t.Fatalf("complete prefix not returned: %d events", len(evs))
	}
}

func TestValidateTraceOutcomeNeedsDispatch(t *testing.T) {
	tr := []Event{
		{Seq: 0, Kind: KindRunStart},
		{Seq: 1, Tick: 1, Kind: KindOutcome, Rank: 1},
		{Seq: 2, Tick: 2, Kind: KindRunEnd},
	}
	if err := ValidateTrace(tr); err == nil {
		t.Fatal("outcome without dispatch accepted")
	}
}

func TestHistogramQuantile(t *testing.T) {
	near := func(got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	var nilH *Histogram
	near(nilH.Quantile(0.5), 0)

	reg := NewRegistry()
	h := reg.Histogram("h", []float64{10, 100})
	near(h.Quantile(0.5), 0) // empty

	h.Observe(7)
	h.Observe(50)
	near(h.Quantile(0.50), 10)   // rank 1 fills the first bucket exactly
	near(h.Quantile(0.95), 46)   // interpolated inside (10,50], the bucket cut at the maximum
	near(h.Quantile(0.99), 49.2) // deeper into the same bucket

	over := reg.Histogram("over", []float64{10})
	over.Observe(20)
	near(over.Quantile(0.5), 20) // the overflow bucket ends at the maximum

	one := reg.Histogram("one", []float64{100, 1000})
	one.Observe(233)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		near(one.Quantile(q), 233) // a single sample is reported exactly
	}
}

// TestHistogramQuantilesInsideData is the property min ≤ p50 ≤ p95 ≤
// p99 ≤ max over random sample sets, bucket layouts and scales.
func TestHistogramQuantilesInsideData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reg := NewRegistry()
	for trial := 0; trial < 500; trial++ {
		bounds := []float64{}
		for b := rng.Float64(); len(bounds) < 1+rng.Intn(8); b *= 2 + 8*rng.Float64() {
			bounds = append(bounds, b)
		}
		h := reg.Histogram(fmt.Sprintf("h%d", trial), bounds)
		lo, hi := math.Inf(1), math.Inf(-1)
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		for n := 1 + rng.Intn(40); n > 0; n-- {
			x := scale * rng.ExpFloat64()
			if rng.Intn(4) == 0 {
				x = -x
			}
			h.Observe(x)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		p50, p95, p99 := h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99)
		if !(lo <= p50 && p50 <= p95 && p95 <= p99 && p99 <= hi) {
			t.Fatalf("trial %d (bounds %v): min %v p50 %v p95 %v p99 %v max %v", trial, bounds, lo, p50, p95, p99, hi)
		}
	}
}

func TestSnapshotHistogramQuantileKinds(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("empty", []float64{1})
	h := reg.Histogram("full", []float64{1, 2})
	h.Observe(1.5)
	kinds := map[string]bool{}
	for _, m := range reg.Snapshot() {
		kinds[m.Name+"/"+m.Kind] = true
	}
	for _, want := range []string{"full/hist.count", "full/hist.mean", "full/hist.p50", "full/hist.p95", "full/hist.p99"} {
		if !kinds[want] {
			t.Errorf("snapshot missing %s", want)
		}
	}
	for _, absent := range []string{"empty/hist.mean", "empty/hist.p50"} {
		if kinds[absent] {
			t.Errorf("snapshot has %s for an empty histogram", absent)
		}
	}
}
