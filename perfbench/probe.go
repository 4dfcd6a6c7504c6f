package main

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scip"
	"repro/internal/ug"
	"repro/internal/ug/comm"
	"repro/perfbench/spans"
)

// probe watches one ug.Run from outside the program. It wraps the public
// boundaries the run crosses — the SolverFactory, every WorkerSolver,
// the communicator, the ProblemDef and every scip plugin — and records a
// span per call when rec is non-nil. The communicator wrapper is also
// used untraced: it timestamps the incumbents travelling to the
// coordinator, which the end-to-end metrics need.
type probe struct {
	rec   *spans.Recorder // nil: untraced
	solve int
	start time.Time
	root  int // the ug.run span

	mu    sync.Mutex
	open  map[int64][]int // goroutine → stack of open cold-path spans
	rank  map[int64]int   // goroutine → ParaSolver rank, learnt in Recv
	incs  []incumbent     // model-space objectives, in arrival order
	plugs map[string]*plugStat

	msgs, bytes, dispatches, collected atomic.Int64
}

// incumbent is a primal solution seen at a boundary, at seconds since
// the run started.
type incumbent struct {
	at  float64
	obj float64
}

// plugStat counts the calls of one plugin and those that paid off
// (separated a cut, found a solution, reduced the domain).
type plugStat struct {
	calls, hits atomic.Int64
}

func newProbe(rec *spans.Recorder, solve int) *probe {
	return &probe{
		rec:   rec,
		solve: solve,
		root:  spans.None,
		open:  map[int64][]int{},
		rank:  map[int64]int{},
		plugs: map[string]*plugStat{},
	}
}

// goid returns the current goroutine's id. Only the cold boundaries
// (run, presolve, Solve, Recv, MakePlugins) call it; it is how a span
// opened inside a Solve finds that Solve as its parent.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// beginCold opens a span whose parent is the innermost cold span open
// on this goroutine, falling back to the run's root span.
//
//ugo:coldpath cold spans open only at run, presolve, Solve, Recv and plugin-set boundaries; the app-level Def reaches here from global presolve, never from the node loop
func (p *probe) beginCold(name string) (id int, gid int64) {
	if p.rec == nil {
		return spans.None, 0
	}
	gid = goid()
	p.mu.Lock()
	parent := p.root
	if st := p.open[gid]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	rank := p.rank[gid]
	p.mu.Unlock()
	id = p.rec.Begin(name, parent, p.solve, rank)
	p.mu.Lock()
	p.open[gid] = append(p.open[gid], id)
	p.mu.Unlock()
	return id, gid
}

// endCold closes a span opened by beginCold.
//
//ugo:coldpath pops the per-goroutine stack beginCold pushed; same boundaries as beginCold
func (p *probe) endCold(id int, gid int64) {
	if p.rec == nil {
		return
	}
	p.rec.End(id)
	p.mu.Lock()
	if st := p.open[gid]; len(st) > 0 {
		p.open[gid] = st[:len(st)-1]
	}
	p.mu.Unlock()
}

// current returns the innermost open cold span and the rank of the
// calling goroutine.
func (p *probe) current() (parent, rank int) {
	gid := goid()
	p.mu.Lock()
	defer p.mu.Unlock()
	parent = p.root
	if st := p.open[gid]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	return parent, p.rank[gid]
}

func (p *probe) sawIncumbent(obj float64) {
	at := time.Since(p.start).Seconds()
	p.mu.Lock()
	p.incs = append(p.incs, incumbent{at, obj})
	p.mu.Unlock()
}

func (p *probe) stat(name string) *plugStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.plugs[name]
	if st == nil {
		st = &plugStat{}
		p.plugs[name] = st
	}
	return st
}

// run solves app with ug.Run over a wrapped core.NewFactory(app), the
// path core.SolveParallel takes, and returns the factory for the
// objective offset.
func (p *probe) run(app core.App, cfg ug.Config) (*ug.Result, *core.Factory, error) {
	if p.rec != nil {
		app = p.wrapApp(app)
	}
	f := core.NewFactory(app)
	cfg.Comm = &probeComm{inner: comm.NewChannelComm(cfg.Workers + 1), p: p}
	p.start = time.Now()
	id, gid := p.beginCold("ug.run")
	p.root = id
	res, err := ug.Run(&probeFactory{inner: f, p: p}, cfg)
	p.endCold(id, gid)
	return res, f, err
}

// probeFactory wraps the ug.SolverFactory core.NewFactory returns.
type probeFactory struct {
	inner *core.Factory
	p     *probe
}

func (f *probeFactory) GlobalPresolve() ([]byte, *ug.Solution, error) {
	id, gid := f.p.beginCold("core.presolve")
	root, initial, err := f.inner.GlobalPresolve()
	f.p.endCold(id, gid)
	if initial != nil {
		f.p.sawIncumbent(initial.Obj)
	}
	return root, initial, err
}

func (f *probeFactory) CreateWorker(idx int) ug.WorkerSolver {
	w := f.inner.CreateWorker(idx)
	if f.p.rec == nil {
		return w
	}
	return &probeWorker{inner: w, p: f.p}
}

func (f *probeFactory) NumSettings() int            { return f.inner.NumSettings() }
func (f *probeFactory) SettingsName(idx int) string { return f.inner.SettingsName(idx) }

// probeWorker wraps ug.WorkerSolver.Solve.
type probeWorker struct {
	inner ug.WorkerSolver
	p     *probe
}

func (w *probeWorker) Solve(sub *ug.Subproblem, sess *ug.Session) ug.Outcome {
	id, gid := w.p.beginCold("ug.solve")
	out := w.inner.Solve(sub, sess)
	w.p.endCold(id, gid)
	return out
}

// probeComm passes every call through to a ChannelComm, counting
// messages and payload bytes and timestamping incumbents on their way to
// the coordinator. A worker's blocking Recv is the time it waits for
// work, recorded as a ug.wait span.
type probeComm struct {
	inner comm.Comm
	p     *probe
}

func (c *probeComm) Size() int { return c.inner.Size() }

func (c *probeComm) Send(to int, m comm.Message) {
	c.p.msgs.Add(1)
	c.p.bytes.Add(int64(len(m.Payload)))
	switch m.Tag {
	case comm.TagSubproblem, comm.TagRacing:
		c.p.dispatches.Add(1)
	case comm.TagNode:
		c.p.collected.Add(1)
	case comm.TagSolution:
		if to == 0 {
			var sol ug.Solution
			if gob.NewDecoder(bytes.NewReader(m.Payload)).Decode(&sol) == nil {
				c.p.sawIncumbent(sol.Obj)
			}
		}
	}
	c.inner.Send(to, m)
}

func (c *probeComm) Recv(rank int) comm.Message {
	if c.p.rec == nil || rank == 0 {
		return c.inner.Recv(rank)
	}
	gid := goid()
	c.p.mu.Lock()
	c.p.rank[gid] = rank
	c.p.mu.Unlock()
	id := c.p.rec.Begin("ug.wait", c.p.root, c.p.solve, rank)
	m := c.inner.Recv(rank)
	c.p.rec.End(id)
	return m
}

func (c *probeComm) TryRecv(rank int) (comm.Message, bool) { return c.inner.TryRecv(rank) }

// Closed and Instrument forward the optional methods ug type-asserts
// for, so wrapping changes no behaviour of the run.
func (c *probeComm) Closed() bool {
	cc, ok := c.inner.(interface{ Closed() bool })
	return ok && cc.Closed()
}

func (c *probeComm) Instrument(reg *obs.Registry) {
	if ic, ok := c.inner.(interface{ Instrument(*obs.Registry) }); ok {
		ic.Instrument(reg)
	}
}

// wrapApp wraps the app's ProblemDef and every plugin MakePlugins
// returns. None of them is type-asserted by scip, so the wrappers change
// nothing but the time spent.
func (p *probe) wrapApp(app core.App) core.App {
	if app.Def != nil {
		app.Def = newProbeDef(app.Def, p, app.Name, nil)
	}
	mk := app.MakePlugins
	app.MakePlugins = func() *scip.Plugins { return p.wrapPlugins(mk(), app.Name) }
	return app
}

// nest tracks the open spans of one plugin set. A set serves one solver
// on one goroutine, so it needs no lock. Plugins call each other — a
// heuristic's solution goes through the constraint handler's Check — so
// a span's parent is whatever span of the set is open, down to the Solve
// span the set was made for.
type nest struct {
	p    *probe
	rank int
	open []int
}

func (n *nest) begin(name string) int {
	id := n.p.rec.Begin(name, n.open[len(n.open)-1], n.p.solve, n.rank)
	n.open = append(n.open, id)
	return id
}

func (n *nest) end(id int) {
	n.p.rec.End(id)
	n.open = n.open[:len(n.open)-1]
}

// hook is what every plugin wrapper shares: the span nest of its plugin
// set and the plugin's counters.
type hook struct {
	*nest
	name string
	st   *plugStat
}

func (h *hook) start() int { return h.begin(h.name) }

func (h *hook) stop(id int, hit bool) {
	h.end(id)
	h.st.calls.Add(1)
	if hit {
		h.st.hits.Add(1)
	}
}

func (p *probe) wrapPlugins(pl *scip.Plugins, app string) *scip.Plugins {
	parent, rank := p.current()
	ns := &nest{p: p, rank: rank, open: []int{parent}}
	mk := func(kind, name string) hook {
		n := kind + "." + name
		return hook{nest: ns, name: n, st: p.stat(n)}
	}
	out := &scip.Plugins{}
	if pl.Def != nil {
		out.Def = newProbeDef(pl.Def, p, app, ns)
	}
	for _, x := range pl.Propagators {
		out.Propagators = append(out.Propagators, &probeProp{mk("prop", x.Name()), x})
	}
	for _, x := range pl.Separators {
		out.Separators = append(out.Separators, &probeSepa{mk("sepa", x.Name()), x})
	}
	for _, x := range pl.Heuristics {
		out.Heuristics = append(out.Heuristics, &probeHeur{mk("heur", x.Name()), x})
	}
	for _, x := range pl.Conshdlrs {
		out.Conshdlrs = append(out.Conshdlrs, &probeCons{mk("cons", x.Name()), x})
	}
	for _, x := range pl.Branchers {
		out.Branchers = append(out.Branchers, &probeBranch{mk("branch", x.Name()), x})
	}
	for _, x := range pl.Relaxators {
		out.Relaxators = append(out.Relaxators, &probeRelax{mk("relax", x.Name()), x})
	}
	return out
}

type probeProp struct {
	hook
	inner scip.Propagator
}

func (w *probeProp) Name() string { return w.inner.Name() }
func (w *probeProp) Propagate(ctx *scip.Ctx) scip.Result {
	id := w.start()
	r := w.inner.Propagate(ctx)
	w.stop(id, r == scip.Reduced || r == scip.Cutoff)
	return r
}

type probeSepa struct {
	hook
	inner scip.Separator
}

func (w *probeSepa) Name() string { return w.inner.Name() }
func (w *probeSepa) Separate(ctx *scip.Ctx) scip.Result {
	id := w.start()
	r := w.inner.Separate(ctx)
	w.stop(id, r == scip.Separated)
	return r
}

type probeHeur struct {
	hook
	inner scip.Heuristic
}

func (w *probeHeur) Name() string { return w.inner.Name() }
func (w *probeHeur) Search(ctx *scip.Ctx) scip.Result {
	id := w.start()
	r := w.inner.Search(ctx)
	w.stop(id, r == scip.FoundSol)
	return r
}

type probeCons struct {
	hook
	inner scip.Conshdlr
}

func (w *probeCons) Name() string { return w.inner.Name() }
func (w *probeCons) Check(ctx *scip.Ctx, x []float64) bool {
	id := w.start()
	ok := w.inner.Check(ctx, x)
	w.stop(id, false)
	return ok
}
func (w *probeCons) Enforce(ctx *scip.Ctx, x []float64) scip.Result {
	id := w.start()
	r := w.inner.Enforce(ctx, x)
	w.stop(id, r == scip.Separated || r == scip.Cutoff)
	return r
}

type probeBranch struct {
	hook
	inner scip.Brancher
}

func (w *probeBranch) Name() string { return w.inner.Name() }
func (w *probeBranch) Branch(ctx *scip.Ctx) ([]scip.Child, scip.Result) {
	id := w.start()
	ch, r := w.inner.Branch(ctx)
	w.stop(id, r == scip.Branched)
	return ch, r
}

type probeRelax struct {
	hook
	inner scip.Relaxator
}

func (w *probeRelax) Name() string { return w.inner.Name() }
func (w *probeRelax) Relax(ctx *scip.Ctx) (float64, []float64, scip.Result) {
	id := w.start()
	b, x, r := w.inner.Relax(ctx)
	w.stop(id, r != scip.DidNotRun)
	return b, x, r
}

// probeDef wraps a ProblemDef. The app-level Def runs inside global
// presolve and finds its parent span by goroutine; a plugin set's Def
// runs per node inside the set's nest.
type probeDef struct {
	inner scip.ProblemDef
	p     *probe
	names [len(defOps)]string // span names def.op.app, built once
	nest  *nest               // nil for the app-level Def
}

// The ProblemDef operations probeDef times, indexing probeDef.names.
const (
	defPresolve = iota
	defBuild
	defClone
	defApply
)

var defOps = [...]string{"def.presolve", "def.build", "def.clone", "def.apply"}

func newProbeDef(inner scip.ProblemDef, p *probe, app string, ns *nest) *probeDef {
	d := &probeDef{inner: inner, p: p, nest: ns}
	for i, op := range defOps {
		d.names[i] = op + "." + app
	}
	return d
}

func (d *probeDef) span(op int, call func()) {
	name := d.names[op]
	if d.nest != nil {
		id := d.nest.begin(name)
		call()
		d.nest.end(id)
		return
	}
	id, gid := d.p.beginCold(name)
	call()
	d.p.endCold(id, gid)
}

func (d *probeDef) Presolve(data any, ub float64) (out any, off float64) {
	d.span(defPresolve, func() { out, off = d.inner.Presolve(data, ub) })
	return out, off
}

func (d *probeDef) BuildModel(data any) (prob *scip.Prob) {
	d.span(defBuild, func() { prob = d.inner.BuildModel(data) })
	return prob
}

func (d *probeDef) CloneData(data any) (out any) {
	d.span(defClone, func() { out = d.inner.CloneData(data) })
	return out
}

func (d *probeDef) ApplyDecision(data any, dec scip.Decision) {
	d.span(defApply, func() { d.inner.ApplyDecision(data, dec) })
}
