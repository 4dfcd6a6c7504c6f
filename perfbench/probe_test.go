package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/misdp"
	"repro/internal/misdp/testsets"
	"repro/internal/ug"
	"repro/perfbench/spans"
)

// tracedSolve solves one small instance through the wrappers and checks
// the answer the way the benchmark does.
func tracedSolve(t *testing.T, p problem, cfg ug.Config) []spans.Span {
	t.Helper()
	rec := spans.New()
	pr := newProbe(rec, 0)
	res, f, err := pr.run(p.app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.check(p.app, res, f); err != nil {
		t.Fatalf("%s: %v", p.key, err)
	}
	if len(pr.incs) == 0 {
		t.Errorf("%s: no incumbent crossed the communicator", p.key)
	}
	return rec.Spans()
}

// On each rank, the self times of a WorkerSolver.Solve span and every
// span below it add up to the time in that Solve: no layer's time is
// counted twice or lost.
func checkSolveAccounting(t *testing.T, all []spans.Span, workers int) {
	t.Helper()
	self := spans.SelfTimes(all)
	solveOf := func(i int) int {
		for ; i >= 0; i = all[i].Parent {
			if all[i].Name == "ug.solve" {
				return i
			}
		}
		return -1
	}
	inSolve := map[int]time.Duration{}
	plugins := 0
	for i, s := range all {
		if s.End == 0 {
			t.Fatalf("span %s never ended", s.Name)
		}
		if sv := solveOf(i); sv >= 0 {
			inSolve[sv] += self[i]
			if all[sv].Rank != s.Rank {
				t.Fatalf("span %s on rank %d under a Solve on rank %d", s.Name, s.Rank, all[sv].Rank)
			}
			if sv != i {
				plugins++
			}
		} else if strings.Contains("prop sepa heur cons branch relax", strings.SplitN(s.Name, ".", 2)[0]) {
			t.Fatalf("plugin span %s outside any Solve", s.Name)
		}
	}
	if len(inSolve) == 0 || plugins == 0 {
		t.Fatalf("%d Solve spans with %d spans inside", len(inSolve), plugins)
	}
	perRank := map[int][2]time.Duration{}
	for sv, sum := range inSolve {
		r := all[sv].Rank
		if r < 1 || r > workers {
			t.Fatalf("Solve span on rank %d", r)
		}
		pr := perRank[r]
		perRank[r] = [2]time.Duration{pr[0] + sum, pr[1] + all[sv].Dur()}
	}
	for r, v := range perRank {
		if v[0] != v[1] {
			t.Errorf("rank %d: span self times add to %v, time in Solve %v", r, v[0], v[1])
		}
	}
}

func TestSpansAddUpPerRankSteiner(t *testing.T) {
	all := tracedSolve(t, stpProblem(5), ug.Config{Workers: 2})
	checkSolveAccounting(t, all, 2)
	ranks := map[int]bool{}
	for _, s := range all {
		if s.Name == "ug.solve" {
			ranks[s.Rank] = true
		}
	}
	if len(ranks) != 2 {
		t.Errorf("Solve spans on ranks %v, want both workers busy", ranks)
	}
}

func TestSpansAddUpPerRankMISDPRacing(t *testing.T) {
	gen := func() *misdp.MISDP { return testsets.TTD(3, 6, 2, 5) }
	p := problem{key: "ttd", app: misdp.NewApp(gen(), 4)}
	p.check = func(_ core.App, res *ug.Result, f *core.Factory) error { return checkMISDP(gen(), res, f) }
	all := tracedSolve(t, p, ug.Config{Workers: 2, RampUp: ug.RampUpRacing, RacingTime: 0.05})
	checkSolveAccounting(t, all, 2)
	relax := 0
	for _, s := range all {
		if strings.HasPrefix(s.Name, "relax.") {
			relax++
		}
	}
	if relax == 0 {
		t.Error("no SDP relaxation span recorded")
	}
}

// A wrong answer must fail the independent check.
func TestCheckRejectsWrongObjective(t *testing.T) {
	p := stpProblem(11)
	res, f, err := newProbe(nil, 0).run(p.app, ug.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.check(p.app, res, f); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	res.Obj += 1
	if err := p.check(p.app, res, f); err == nil {
		t.Fatal("objective off by one accepted")
	}
	res.Obj -= 1
	res.DualBound = res.Obj + 5
	if err := p.check(p.app, res, f); err == nil {
		t.Fatal("dual bound above the primal accepted")
	}
}

func TestServeOracles(t *testing.T) {
	// Mk-P on 4 vertices in 2 classes: the lightest in-class weight of
	// the best split, checked by hand against the generated weights.
	w := testsets.MkPWeights(4, 9)
	best := -1.0
	for mask := 0; mask < 16; mask++ {
		in := 0.0
		for u := 0; u < 4; u++ {
			for v := u + 1; v < 4; v++ {
				if (mask>>u)&1 == (mask>>v)&1 {
					in += w[u][v]
				}
			}
		}
		if best < 0 || in < best {
			best = in
		}
	}
	if got := oracleMkP(4, 2, 9); got != best {
		t.Fatalf("oracleMkP = %v, want %v", got, best)
	}
}
