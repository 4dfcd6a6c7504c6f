package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/scip"
	"repro/internal/steiner"
	"repro/internal/steiner/puc"
	"repro/internal/ug"
	"repro/perfbench/spans"
	"repro/perfbench/stats"
)

// A solve workload is a closed loop in one process: it solves one
// generated instance at a time to proven optimality with ug on two
// ParaSolvers over ChannelComm, until the run's seconds are used up.
type solveWorkload struct {
	cfg    ug.Config
	pool   int                 // instances generated per second of run time
	gen    func(i int) problem // instance i of the run's seed
	warmup func() problem      // a small instance solved during set-up
}

// problem is one generated instance: a fresh app over its own copy of
// the data, and a check of a result against the original instance,
// regenerated from its seed.
type problem struct {
	key   string
	app   core.App
	check func(app core.App, res *ug.Result, f *core.Factory) error
	again func() problem // the same instance, generated afresh
}

// The Steiner instances are hc4 hypercubes (16 vertices, the 8 even
// words as terminals) with edge costs drawn from [100, 110]. Every one of
// them needs a search tree of about 40 nodes, and their solve times vary
// by a third around the median. The hc5 transition-band instances
// (16 terminals, costs up to about 165) were the first choice, but one in
// five of them is solved at the root while others take fifty times the
// median, so the median, throughput and tail of a run moved by 17–35%
// from seed to seed.
func stpProblem(seed int64) problem {
	gen := func() *steiner.SPG { return puc.HypercubeSpread(4, 8, 100, 110, seed) }
	return problem{
		key: fmt.Sprintf("hc4p110-%d", seed),
		app: steiner.NewApp(gen()),
		check: func(app core.App, res *ug.Result, f *core.Factory) error {
			return checkSTP(gen(), res, f, app.Def.(*steiner.Def).TraceOut)
		},
		again: func() problem { return stpProblem(seed) },
	}
}

// stpTree solves hc4 hypercubes with normal ramp-up: LP, maxflow cut
// separation, propagation and subproblem transfer all run; SDP does not.
func stpTree(seed int64) *solveWorkload {
	return &solveWorkload{
		cfg:    ug.Config{Workers: 2, TimeLimit: 60},
		pool:   40,
		gen:    func(i int) problem { return stpProblem(seed*100003 + int64(i)) },
		warmup: func() problem { return stpProblem(-1) },
	}
}

// solved is one ug solve kept for checking after the timed window.
type solved struct {
	p      problem
	res    *ug.Result
	f      *core.Factory
	err    error
	lat    float64
	incs   []incumbent
	counts probeCounts // traced solves only
}

func (w *solveWorkload) solveOnce(p problem, rec *spans.Recorder, id int) solved {
	pr := newProbe(rec, id)
	t0 := time.Now()
	res, f, err := pr.run(p.app, w.cfg)
	s := solved{p: p, res: res, f: f, err: err, lat: time.Since(t0).Seconds(), incs: pr.incs}
	if rec != nil {
		s.counts = collectProbe(pr)
	}
	return s
}

// verify checks one solve and returns its optimum in the original
// objective space.
func (s *solved) verify(log *optimaLog) (float64, error) {
	if s.err != nil {
		return 0, s.err
	}
	if err := s.p.check(s.p.app, s.res, s.f); err != nil {
		return 0, err
	}
	opt := s.res.Obj + s.f.ObjOffset()
	return opt, log.check(s.p.key, opt)
}

func runSolves(r *run, w *solveWorkload) {
	n := int(math.Ceil(r.seconds)) * w.pool
	pool := setup(r, func() ([]problem, func()) {
		ps := make([]problem, n)
		for i := range ps {
			ps[i] = w.gen(i)
		}
		wu := w.warmup()
		w.solveOnce(wu, nil, -1)
		return ps, func() {}
	})
	log := loadOptima(r.out)
	if r.trace {
		runSolvesTraced(r, w, pool, log)
	} else {
		runSolvesTimed(r, w, pool, log)
	}
	if err := log.save(); err != nil {
		fatalf("save optima log: %v", err)
	}
}

// runSolvesTimed is the end-to-end run: no spans, one solve at a time.
// Each answer is checked as soon as its solve returns, with the run's
// clock stopped, so the results do not pile up in memory and inflate
// the peak RSS.
func runSolvesTimed(r *run, w *solveWorkload, pool []problem, log *optimaLog) {
	var (
		lat, ttfi, pint []float64
		failed          []string
		checking        time.Duration
	)
	start := time.Now()
	measured := func() time.Duration { return time.Since(start) - checking }
	i := 0
	for ; i < len(pool) && measured().Seconds() < r.seconds; i++ {
		s := w.solveOnce(pool[i], nil, i)
		c0 := time.Now()
		if opt, err := s.verify(log); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", s.p.key, err))
		} else {
			incs := make([]incumbent, len(s.incs))
			for j, in := range s.incs {
				incs[j] = incumbent{in.at, in.obj + s.f.ObjOffset()}
			}
			lat = append(lat, s.lat)
			ttfi = append(ttfi, firstIncumbent(incs, s.lat))
			pint = append(pint, primalIntegral(incs, opt, s.lat))
		}
		checking += time.Since(c0)
	}
	wall := measured().Seconds()
	r.rep.Attempted = i
	r.rep.failures(failed)
	r.timing("solves", lat, wall)
	r.rep.add("ttfi_p50_s", stats.Median(ttfi), "s")
	r.rep.add("primal_integral_p50", stats.Median(pint), "s")
}

// runSolvesTraced is the per-layer run. Each instance is solved three
// times: by the sequential solver (the single-threaded baseline of the
// paper's Table 4), by ug untraced and by ug with every layer wrapped.
// The two ug solves alternate their order, so the trace overhead is
// measured in pairs.
func runSolvesTraced(r *run, w *solveWorkload, pool []problem, log *optimaLog) {
	var (
		plain, traced []solved
		speedup       []float64
		failed        []string
	)
	start := time.Now()
	for i := 0; i < len(pool) && time.Since(start).Seconds() < r.seconds; i++ {
		p := pool[i]
		seqApp := p.again().app
		t0 := time.Now()
		sv, st, offset := core.SolveSequential(seqApp, seqApp.Settings[0])
		seq := time.Since(t0).Seconds()

		var a, b solved
		if i%2 == 0 {
			a = w.solveOnce(p.again(), nil, i)
			b = w.solveOnce(p, r.rec, i)
		} else {
			b = w.solveOnce(p, r.rec, i)
			a = w.solveOnce(p.again(), nil, i)
		}
		plain, traced = append(plain, a), append(traced, b)
		optA, errA := a.verify(log)
		_, errB := b.verify(log)
		if errA != nil {
			failed = append(failed, fmt.Sprintf("%s untraced: %v", p.key, errA))
		}
		if errB != nil {
			failed = append(failed, fmt.Sprintf("%s traced: %v", p.key, errB))
		}
		switch {
		case st != scip.StatusOptimal || sv.Incumbent() == nil:
			failed = append(failed, fmt.Sprintf("%s sequential: status %v", p.key, st))
		case errA == nil && !nearTol(sv.Incumbent().Obj+offset, optA, repeatTol):
			failed = append(failed, fmt.Sprintf("%s sequential: optimum %g, ug found %g", p.key, sv.Incumbent().Obj+offset, optA))
		case errA == nil:
			speedup = append(speedup, seq/a.lat)
		}
	}
	r.rep.Attempted = 3 * len(plain)
	r.rep.failures(failed)
	var sumA, sumB float64
	for i := range plain {
		sumA += plain[i].lat
		sumB += traced[i].lat
	}
	r.rep.add("ug.speedup_p50", stats.Median(speedup), "ratio")
	r.rep.add("trace.overhead", sumB/sumA-1, "ratio")
	r.rep.note("trace.pairs", float64(len(plain)), "count", "untraced/traced ug solves behind trace.overhead")
	r.layerMetrics(w.cfg.Workers, traced)
}
