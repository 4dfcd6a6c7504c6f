package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/misdp"
	"repro/internal/misdp/testsets"
	"repro/internal/scip"
	"repro/internal/steiner"
	"repro/internal/ug"
)

// The checks in this file judge every answer against the original
// instance, regenerated from its seed, never against the solver's own
// presolved copy. A solve that fails a check counts as a failed
// operation; nothing is filtered out.

// objTol is the tolerance for recomputing an answer's own objective.
// repeatTol is the tolerance between the optima of two solves of one
// instance: continuous parts of an MISDP optimum come from an
// interior-point method that stops at a barrier weight of 1e-7 times the
// problem scale, and two solves of one least-squares instance agreed to
// 1.5e-5 only.
const (
	objTol    = 1e-6
	repeatTol = 1e-4
)

func near(a, b float64) bool { return nearTol(a, b, objTol) }

func nearTol(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b)) }

// checkBounds requires a proven optimum whose dual bound does not exceed
// its primal value, both in the original objective space.
func checkBounds(res *ug.Result, offset float64) error {
	if !res.Optimal {
		return fmt.Errorf("not solved to optimality (primal %g, dual %g)", res.Stats.FinalPrimal+offset, res.DualBound+offset)
	}
	if res.Sol == nil {
		return errors.New("optimal without a solution")
	}
	if primal, dual := res.Obj+offset, res.DualBound+offset; dual > primal+objTol*math.Max(1, math.Abs(primal)) {
		return fmt.Errorf("dual bound %g above primal %g", dual, primal)
	}
	return nil
}

// checkSTP maps the solution back to the original graph — model arcs to
// presolved edges, then through the presolve trace to original edges —
// and requires a tree that spans every original terminal and whose
// recomputed cost equals the reported objective.
func checkSTP(orig *steiner.SPG, res *ug.Result, f *core.Factory, tr *steiner.Trace) error {
	if err := checkBounds(res, f.ObjOffset()); err != nil {
		return err
	}
	sol, err := scip.DecodeSol(res.Sol.Payload)
	if err != nil {
		return fmt.Errorf("decode solution: %w", err)
	}
	inst, ok := f.Presolved().Data.(*steiner.Instance)
	if !ok || tr == nil {
		return errors.New("no presolved Steiner instance or presolve trace")
	}
	edges := tr.Expand(inst.SolutionEdges(sol.X))
	if err := orig.ValidTree(edges); err != nil {
		return fmt.Errorf("solution is not a Steiner tree of the original graph: %w", err)
	}
	if cost, obj := orig.TreeCost(edges), res.Obj+f.ObjOffset(); !near(cost, obj) {
		return fmt.Errorf("tree costs %g, reported objective %g", cost, obj)
	}
	return nil
}

// checkMISDP requires the solution to be feasible for the original
// MISDP (bounds, integrality, rows, every block PSD) and its objective
// to equal the reported one. The solver minimizes −Bᵀy.
func checkMISDP(orig *misdp.MISDP, res *ug.Result, f *core.Factory) error {
	if err := checkBounds(res, f.ObjOffset()); err != nil {
		return err
	}
	sol, err := scip.DecodeSol(res.Sol.Payload)
	if err != nil {
		return fmt.Errorf("decode solution: %w", err)
	}
	if len(sol.X) != orig.M {
		return fmt.Errorf("solution has %d values, instance %d variables", len(sol.X), orig.M)
	}
	if !orig.Feasible(sol.X, objTol) {
		return errors.New("solution infeasible for the original MISDP")
	}
	if val, obj := -orig.Eval(sol.X), res.Obj+f.ObjOffset(); !near(val, obj) {
		return fmt.Errorf("solution evaluates to %g, reported objective %g", val, obj)
	}
	return nil
}

// primalGap is the primal gap of value p against the optimum: 0 at the
// optimum, 1 with no incumbent or opposite signs.
func primalGap(p, opt float64) float64 {
	switch {
	case math.IsInf(p, 0) || math.IsNaN(p):
		return 1
	case near(p, opt):
		return 0
	case p*opt < 0:
		return 1
	}
	return math.Abs(p-opt) / math.Max(math.Abs(p), math.Abs(opt))
}

// primalIntegral integrates the primal gap over [0, end] seconds, with
// gap 1 before the first incumbent. incs hold original-space objectives.
func primalIntegral(incs []incumbent, opt, end float64) float64 {
	sort.SliceStable(incs, func(a, b int) bool { return incs[a].at < incs[b].at })
	var area, t float64
	gap := 1.0
	for _, in := range incs {
		at := math.Min(in.at, end)
		area += gap * (at - t)
		t = at
		if g := primalGap(in.obj, opt); g < gap {
			gap = g
		}
	}
	return area + gap*(end-t)
}

// firstIncumbent returns the arrival time of the first incumbent, or
// end when none arrived earlier.
func firstIncumbent(incs []incumbent, end float64) float64 {
	first := end
	for _, in := range incs {
		first = math.Min(first, in.at)
	}
	return first
}

// optimaLog remembers the optimum of every instance across runs of the
// benchmark in one checkout, so a repeat of a seed that reaches another
// optimum is caught.
type optimaLog struct {
	path string
	seen map[string]float64
}

func loadOptima(dir string) *optimaLog {
	l := &optimaLog{path: filepath.Join(dir, "optima.json"), seen: map[string]float64{}}
	if b, err := os.ReadFile(l.path); err == nil {
		_ = json.Unmarshal(b, &l.seen) // an unreadable log starts afresh
	}
	return l
}

// check records opt for key and reports a mismatch with an earlier run.
func (l *optimaLog) check(key string, opt float64) error {
	if prev, ok := l.seen[key]; ok && !nearTol(opt, prev, repeatTol) {
		return fmt.Errorf("%s: optimum %g, an earlier run found %g", key, opt, prev)
	}
	l.seen[key] = opt
	return nil
}

func (l *optimaLog) save() error {
	b, err := json.Marshal(l.seen)
	if err != nil {
		return err
	}
	tmp := l.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, l.path)
}

// Oracles for the small serve-mix instances, computed without the
// solver: Dreyfus–Wagner for Steiner trees, enumeration for MISDPs.

// oracleTTD enumerates every integer design of a truss instance and
// returns the least volume among the feasible ones (min-form objective).
func oracleTTD(p *misdp.MISDP) float64 {
	best := math.Inf(1)
	y := make([]float64, p.M)
	var rec func(i int)
	rec = func(i int) {
		if i == p.M {
			if v := -p.Eval(y); v < best && p.Feasible(y, objTol) {
				best = v
			}
			return
		}
		for a := p.Lo[i]; a <= p.Up[i]; a++ {
			y[i] = a
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// oracleMkP enumerates every assignment of the vertices to k classes and
// returns the least total weight inside classes.
func oracleMkP(vertices, k int, seed int64) float64 {
	w := testsets.MkPWeights(vertices, seed)
	class := make([]int, vertices)
	best := math.Inf(1)
	var rec func(v int, inside float64)
	rec = func(v int, inside float64) {
		if inside >= best {
			return
		}
		if v == vertices {
			best = inside
			return
		}
		for c := 0; c < k; c++ {
			add := 0.0
			for u := 0; u < v; u++ {
				if class[u] == c {
					add += w[u][v]
				}
			}
			class[v] = c
			rec(v+1, inside+add)
		}
	}
	rec(0, 0)
	return best
}
