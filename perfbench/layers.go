package main

import (
	"sort"
	"strings"
	"time"

	"repro/perfbench/spans"
)

// probeCounts is what a traced solve's probe counted at the boundaries.
type probeCounts struct {
	msgs, bytes, dispatches, collected int64
	calls, hits                        map[string]int64 // by span name
}

func collectProbe(p *probe) probeCounts {
	c := probeCounts{
		msgs: p.msgs.Load(), bytes: p.bytes.Load(),
		dispatches: p.dispatches.Load(), collected: p.collected.Load(),
		calls: map[string]int64{}, hits: map[string]int64{},
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, st := range p.plugs {
		c.calls[name] = st.calls.Load()
		c.hits[name] = st.hits.Load()
	}
	return c
}

// spanTotals sums the duration, self time and count of spans by name.
type spanTotals struct {
	dur, self map[string]time.Duration
	count     map[string]int64
}

func totals(all []spans.Span) spanTotals {
	self := spans.SelfTimes(all)
	t := spanTotals{dur: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int64{}}
	for i, s := range all {
		t.dur[s.Name] += s.Dur()
		t.self[s.Name] += self[i]
		t.count[s.Name]++
	}
	return t
}

// byPrefix sums a per-name map over the names starting with prefix.
func byPrefix[V int64 | time.Duration](m map[string]V, prefix string) V {
	var sum V
	for name, v := range m {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics reports the per-layer metrics of traced solves on the
// given number of workers. Times and counts are per solve; rates divide
// totals. An app whose plugins did not run reports zeros, as does serve
// when the run has not measured it.
func (r *run) layerMetrics(workers int, traced []solved) {
	all := r.rec.Spans()
	t := totals(all)
	n := float64(len(traced))
	sec := func(d time.Duration) float64 { return d.Seconds() / n }

	var nodes, iters, msgs, bytes, disp, coll float64
	calls, hits := map[string]int64{}, map[string]int64{}
	for _, s := range traced {
		if s.res != nil {
			nodes += float64(s.res.Stats.TotalNodes)
			iters += float64(s.res.Stats.LPIterations)
		}
		msgs += float64(s.counts.msgs)
		bytes += float64(s.counts.bytes)
		disp += float64(s.counts.dispatches)
		coll += float64(s.counts.collected)
		for k, v := range s.counts.calls {
			calls[k] += v
			hits[k] += s.counts.hits[k]
		}
	}
	solveSelf := t.self["ug.solve"].Seconds()
	r.rep.add("scip.self_s", sec(t.self["ug.solve"]), "s/solve")
	r.rep.add("scip.nodes", nodes/n, "count/solve")
	r.rep.add("scip.nodes_per_s", ratio(nodes, t.dur["ug.solve"].Seconds()), "1/s")
	r.rep.add("lp.iters", iters/n, "count/solve")
	r.rep.add("lp.iters_per_s", ratio(iters, solveSelf), "1/s")
	r.rep.add("def.node_s", sec(byPrefix(t.self, "def.clone.")+byPrefix(t.self, "def.apply.")), "s/solve")

	// Plugin spans are named kind.plugin, ProblemDef spans def.op.app;
	// each app layer is the set of its own plugins.
	selfOf := func(name string) float64 { return sec(t.self[name]) }
	yield := func(name string) float64 { return ratio(float64(hits[name]), float64(calls[name])) }
	r.rep.add("steiner.reduce_s", selfOf("def.presolve.SCIP-Jack"), "s/solve")
	r.rep.add("steiner.sepa_s", selfOf("sepa.stpcuts"), "s/solve")
	r.rep.add("steiner.sepa_yield", yield("sepa.stpcuts"), "ratio")
	r.rep.add("steiner.prop_s", selfOf("prop.stpprop"), "s/solve")
	r.rep.add("steiner.cons_s", selfOf("cons.stp"), "s/solve")
	r.rep.add("steiner.branch_s", selfOf("branch.stpvertex"), "s/solve")
	r.rep.add("steiner.heur_s", selfOf("heur.stpheur"), "s/solve")
	r.rep.add("steiner.heur_yield", yield("heur.stpheur"), "ratio")
	relax, relaxCalls := t.self["relax.sdprelax"], float64(t.count["relax.sdprelax"])
	r.rep.add("misdp.relax_s", sec(relax), "s/solve")
	r.rep.add("misdp.relax_calls", relaxCalls/n, "count/solve")
	r.rep.add("misdp.relax_ms_per_call", 1000*ratio(relax.Seconds(), relaxCalls), "ms/call")
	r.rep.add("misdp.eigcut_s", selfOf("sepa.eigcut"), "s/solve")
	r.rep.add("misdp.prop_s", selfOf("prop.linprop"), "s/solve")
	r.rep.add("misdp.cons_s", selfOf("cons.sdpcone"), "s/solve")
	r.rep.add("misdp.heur_s", selfOf("heur.fixround"), "s/solve")
	r.rep.add("misdp.heur_yield", yield("heur.fixround"), "ratio")

	r.rep.add("ug.ramp_up_s", rampUp(all, workers)/n, "s/solve")
	r.rep.add("ug.worker_busy_ratio", ratio(t.dur["ug.solve"].Seconds(), float64(workers)*t.dur["ug.run"].Seconds()), "ratio")
	r.rep.add("ug.worker_wait_s", sec(t.dur["ug.wait"]), "s/solve")
	r.rep.add("ug.dispatches", disp/n, "count/solve")
	r.rep.add("ug.collected", coll/n, "count/solve")
	r.rep.add("comm.msgs", msgs/n, "count/solve")
	r.rep.add("comm.bytes", bytes/n, "B/solve")
	r.rep.add("comm.bytes_per_msg", ratio(bytes, msgs), "B/msg")
	r.rep.add("core.presolve_s", sec(t.dur["core.presolve"]), "s/solve")
	// Solve workloads never cross the HTTP API.
	r.rep.idle("serve.", "ug.speedup_p50")
}

// rampUp sums, over the traced solves, the time from the start of the
// run until every worker has started its first Solve; a worker that
// never got work counts the whole run.
func rampUp(all []spans.Span, workers int) float64 {
	type runInfo struct {
		start, end time.Duration
		first      map[int]time.Duration
	}
	runs := map[int]*runInfo{}
	get := func(solve int) *runInfo {
		ri := runs[solve]
		if ri == nil {
			ri = &runInfo{first: map[int]time.Duration{}}
			runs[solve] = ri
		}
		return ri
	}
	for _, s := range all {
		switch s.Name {
		case "ug.run":
			ri := get(s.Solve)
			ri.start, ri.end = s.Start, s.End
		case "ug.solve":
			ri := get(s.Solve)
			if f, ok := ri.first[s.Rank]; !ok || s.Start < f {
				ri.first[s.Rank] = s.Start
			}
		}
	}
	var sum float64
	for _, ri := range runs {
		last := ri.start
		for rank := 1; rank <= workers; rank++ {
			f, ok := ri.first[rank]
			if !ok {
				f = ri.end
			}
			if f > last {
				last = f
			}
		}
		sum += (last - ri.start).Seconds()
	}
	return sum
}

// idle reports zero for every metric of the named layers that the run
// did not measure, because the workload does not reach that layer.
func (r *report) idle(prefixes ...string) {
	for _, name := range sortedKeys(r.want) {
		if _, done := r.Metrics[name]; done {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				r.add(name, 0, r.want[name])
				break
			}
		}
	}
}

// sortedKeys lists a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
