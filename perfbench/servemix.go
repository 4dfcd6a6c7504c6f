package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/misdp"
	"repro/internal/misdp/testsets"
	"repro/internal/serve"
	"repro/internal/steiner"
	"repro/internal/steiner/puc"
	"repro/internal/ug"
	"repro/perfbench/spans"
	"repro/perfbench/stats"
)

// serve-mix: two HTTP clients drive an in-process ugserve on loopback in
// a closed loop. The server runs two jobs at once with one ParaSolver
// each. Jobs are small, so the per-job costs — HTTP and JSON, the job
// state machine, the per-job event bus and recorder, ug.Run set-up, gob
// on every message, presolve or a presolve-cache hit — are a large
// share of each job's time.
const (
	serveClients = 2
	// serveJobsPerSecond sizes the generated job list; a run never gets
	// through more.
	serveJobsPerSecond = 150
)

// job is one submission in the generated job list.
type job struct {
	key    string // instance identity, shared by repeats
	spec   serve.Spec
	oracle func() float64 // optimum computed without the solver
	local  func() problem // the same instance for a solve outside the server
}

// newSpec builds distinct spec number i. Kinds rotate so every run has
// the same mix: an hc4 Steiner tree, a truss design and a
// 7-vertex 3-partitioning, each about 30–50 ms of solving on one
// ParaSolver. Their latencies overlap, so a run's median sits inside
// one cluster; mixing 2 ms and 60 ms specs put it in the gap between
// clusters, where it moved by a fifth from run to run. The apps mirror
// what the server builds from each spec.
func newSpec(i int, seed int64) job {
	var j job
	switch i % 3 {
	case 0:
		gen := func() *steiner.SPG { return puc.HypercubeT(4, 8, true, seed) }
		j = job{
			key:    fmt.Sprintf("hc4t8-%d", seed),
			spec:   serve.Spec{Kind: "stp", Gen: &serve.GenSpec{Family: "hc", D: 4, Terminals: 8, Perturbed: true, Seed: seed}},
			oracle: func() float64 { return gen().SolveDW() },
			local: func() problem {
				return problem{app: steiner.NewApp(gen()), check: func(app core.App, res *ug.Result, f *core.Factory) error {
					return checkSTP(gen(), res, f, app.Def.(*steiner.Def).TraceOut)
				}}
			},
		}
	case 1:
		gen := func() *misdp.MISDP { return testsets.TTD(4, 8, 2, seed) }
		j = job{
			key:    fmt.Sprintf("ttd4b8-%d", seed),
			spec:   serve.Spec{Kind: "misdp", Family: "ttd", N: 8, Seed: seed},
			oracle: func() float64 { return oracleTTD(gen()) },
			local:  func() problem { return misdpLocal(gen) },
		}
	default:
		gen := func() *misdp.MISDP { return testsets.MkP(7, 3, seed) }
		j = job{
			key:    fmt.Sprintf("mkp7k3-%d", seed),
			spec:   serve.Spec{Kind: "misdp", Family: "mkp", N: 7, K: 3, Seed: seed},
			oracle: func() float64 { return oracleMkP(7, 3, seed) },
			local:  func() problem { return misdpLocal(gen) },
		}
	}
	j.spec.Workers = 1
	return j
}

func misdpLocal(gen func() *misdp.MISDP) problem {
	return problem{app: misdp.NewApp(gen(), 16), check: func(_ core.App, res *ug.Result, f *core.Factory) error {
		return checkMISDP(gen(), res, f)
	}}
}

// jobList generates n submissions from the run's seed: every other one
// resubmits an earlier spec, drawn at random, and so hits the presolve
// cache.
func jobList(seed int64, n int) []job {
	rng := rand.New(rand.NewSource(seed))
	var distinct, out []job
	for len(out) < n {
		if len(out)%2 == 1 {
			out = append(out, distinct[rng.Intn(len(distinct))])
			continue
		}
		j := newSpec(len(distinct), seed*100003+int64(len(distinct))+1)
		distinct = append(distinct, j)
		out = append(out, j)
	}
	return out
}

// jobDone is what one client saw of one job.
type jobDone struct {
	j      job
	lat    float64 // POST sent → result in hand
	submit float64 // POST round trip
	st     serve.Status
	incs   []incumbent // incumbent frames, model-space, by arrival
	err    error
	traced bool
}

// mixServer is the system under test: the server and a client.
type mixServer struct {
	srv  *serve.Server
	base string
	hc   *http.Client
}

func startMix() (*mixServer, error) {
	srv := serve.New(serve.Config{Addr: "127.0.0.1:0", MaxConcurrent: 2, DefaultWorkers: 1})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}
	return &mixServer{srv: srv, base: "http://" + srv.Addr(), hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}, nil
}

func (m *mixServer) stop() {
	m.srv.Close()
	m.hc.CloseIdleConnections()
}

// do runs one job the way a client would: submit, follow the event
// stream to its end, then fetch the result, polling until the job is
// terminal (the stream can end just before the state changes).
func (m *mixServer) do(j job, rec *spans.Recorder, id, client int) jobDone {
	d := jobDone{j: j, traced: rec != nil}
	t0 := time.Now()
	since := func() float64 { return time.Since(t0).Seconds() }
	body, err := json.Marshal(j.spec)
	if err != nil {
		d.err = err
		return d
	}
	sp := rec.Begin("serve.post", spans.None, id, client)
	var st serve.Status
	d.err = m.call(http.MethodPost, "/v1/jobs", body, &st)
	rec.End(sp)
	d.submit = since()
	if d.err != nil {
		return d
	}
	sp = rec.Begin("serve.events", spans.None, id, client)
	d.incs, d.err = m.follow(st.ID, since)
	rec.End(sp)
	if d.err != nil {
		return d
	}
	sp = rec.Begin("serve.result", spans.None, id, client)
	for give := time.Now().Add(30 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		if d.err = m.call(http.MethodGet, "/v1/jobs/"+st.ID, nil, &d.st); d.err != nil || d.st.State.Terminal() {
			break
		}
		if time.Now().After(give) {
			d.err = fmt.Errorf("job %s still %s 30 s after its events ended", st.ID, d.st.State)
			break
		}
	}
	rec.End(sp)
	d.lat = since()
	return d
}

func (m *mixServer) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, m.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := m.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.Unmarshal(b, out)
}

// follow reads a job's event stream to EOF and returns the incumbent
// frames with their arrival times.
func (m *mixServer) follow(id string, since func() float64) ([]incumbent, error) {
	resp, err := m.hc.Get(m.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET events of %s: HTTP %d", id, resp.StatusCode)
	}
	var incs []incumbent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			Kind   string  `json:"kind"`
			Primal float64 `json:"primal"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("event frame %q: %w", line, err)
		}
		if ev.Kind == "incumbent" {
			incs = append(incs, incumbent{since(), ev.Primal})
		}
	}
	return incs, sc.Err()
}

func runServeMix(r *run) {
	n := int(math.Ceil(r.seconds)) * serveJobsPerSecond
	var jobs []job
	m := setup(r, func() (*mixServer, func()) {
		jobs = jobList(r.seed, n)
		m, err := startMix()
		if err != nil {
			fatalf("start server: %v", err)
		}
		// One round trip of a spec the workload never submits, so the
		// server's lazy set-up is done before timing starts.
		warm := job{spec: serve.Spec{Kind: "stp", Gen: &serve.GenSpec{Family: "hc", D: 3, Perturbed: true, Seed: 1}, Workers: 1}}
		if d := m.do(warm, nil, -1, 0); d.err != nil {
			fatalf("warm-up job: %v", d.err)
		}
		return m, m.stop
	})

	done := make([]jobDone, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for time.Since(start).Seconds() < r.seconds {
				k := int(next.Add(1)) - 1
				if k >= len(jobs) {
					return
				}
				var rec *spans.Recorder
				if k%2 == 0 {
					rec = r.rec // traced runs trace every other job: the rest measure the overhead
				}
				done[k] = m.do(jobs[k], rec, k, client)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	m.stop()
	attempted := min(int(next.Load()), len(jobs))
	done = done[:attempted]
	r.rep.Attempted = attempted

	log := loadOptima(r.out)
	oracle := map[string]float64{}
	var lat, ttfi, pint []float64
	var failed []string
	var ok []jobDone
	for _, d := range done {
		opt, err := verifyJob(d, oracle, log)
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", d.j.key, err))
			continue
		}
		ok = append(ok, d)
		lat = append(lat, d.lat)
		ttfi = append(ttfi, firstIncumbent(d.incs, d.lat))
		// Frames carry model-space objectives; the last frame is the
		// optimum, which fixes the offset to the reported objective.
		var incs []incumbent
		if len(d.incs) > 0 {
			off := opt - d.incs[len(d.incs)-1].obj
			for _, in := range d.incs {
				incs = append(incs, incumbent{in.at, in.obj + off})
			}
		}
		pint = append(pint, primalIntegral(incs, opt, d.lat))
	}
	if r.trace {
		failed = append(failed, r.replay(ok, log)...)
	}
	if err := log.save(); err != nil {
		fatalf("save optima log: %v", err)
	}
	r.rep.failures(failed)
	if !r.trace {
		r.timing("jobs", lat, wall)
		r.rep.add("ttfi_p50_s", stats.Median(ttfi), "s")
		r.rep.add("primal_integral_p50", stats.Median(pint), "s")
		return
	}
	r.serveLayers(ok)
}

// verifyJob checks one job: every call succeeded, the job is done with
// a proven optimum, the dual bound does not exceed it, and it equals the
// optimum computed without the solver.
func verifyJob(d jobDone, oracle map[string]float64, log *optimaLog) (float64, error) {
	if d.err != nil {
		return 0, d.err
	}
	if d.st.State != serve.StateDone || d.st.Result == nil {
		return 0, fmt.Errorf("job %s ended %s: %s", d.st.ID, d.st.State, d.st.Error)
	}
	res := d.st.Result
	if res.Status != "optimal" {
		return 0, fmt.Errorf("job %s: status %s", d.st.ID, res.Status)
	}
	if res.DualBound > res.Objective+objTol*math.Max(1, math.Abs(res.Objective)) {
		return 0, fmt.Errorf("job %s: dual bound %g above objective %g", d.st.ID, res.DualBound, res.Objective)
	}
	want, ok := oracle[d.j.key]
	if !ok {
		want = d.j.oracle()
		oracle[d.j.key] = want
	}
	if !near(res.Objective, want) {
		return 0, fmt.Errorf("job %s: objective %g, optimum %g", d.st.ID, res.Objective, want)
	}
	return res.Objective, log.check(d.j.key, res.Objective)
}

// serveLayers reports the serve layer from the client's side and the
// job status timestamps. Solver layers run inside the server, out of the
// benchmark's reach, and report zeros.
func (r *run) serveLayers(ok []jobDone) {
	var submit, queue, runS, notify, presolve []float64
	var hits, tracedLat, plainLat float64
	var nTraced, nPlain int
	for _, d := range ok {
		created, err1 := time.Parse(time.RFC3339Nano, d.st.Created)
		started, err2 := time.Parse(time.RFC3339Nano, d.st.Started)
		finished, err3 := time.Parse(time.RFC3339Nano, d.st.Finished)
		if err1 != nil || err2 != nil || err3 != nil {
			fatalf("job %s: unreadable timestamps %q %q %q", d.st.ID, d.st.Created, d.st.Started, d.st.Finished)
		}
		submit = append(submit, d.submit)
		queue = append(queue, started.Sub(created).Seconds())
		runS = append(runS, finished.Sub(started).Seconds())
		notify = append(notify, d.lat-finished.Sub(created).Seconds())
		if d.st.Result.Cache == "miss" {
			presolve = append(presolve, d.st.Result.PresolveSeconds)
		}
		if d.st.Result.Cache == "hit" {
			hits++
		}
		if d.traced {
			tracedLat += d.lat
			nTraced++
		} else {
			plainLat += d.lat
			nPlain++
		}
	}
	r.rep.add("serve.submit_s", stats.Median(submit), "s")
	r.rep.add("serve.queue_wait_s", stats.Median(queue), "s")
	r.rep.add("serve.run_s", stats.Median(runS), "s")
	r.rep.add("serve.notify_s", stats.Median(notify), "s")
	r.rep.add("serve.presolve_s", stats.Median(presolve), "s") // over cache misses
	r.rep.add("serve.cache_hit_ratio", ratio(hits, float64(len(ok))), "ratio")
	r.rep.add("trace.overhead", ratio(tracedLat, float64(nTraced))/ratio(plainLat, float64(nPlain))-1, "ratio")
	r.rep.note("trace.pairs", float64(min(nTraced, nPlain)), "count", "traced and untraced jobs behind trace.overhead")
	r.layerMetrics(1, r.replayed)
}

// replay solves the distinct instances of the checked jobs once more,
// outside the server, through the same core path the server takes (one
// ParaSolver, ChannelComm) with every layer wrapped. The server builds
// its own ug.Config and communicator, out of reach of the wrappers, so
// this is where serve-mix gets its solver layers. It spends at most half
// the run's seconds and checks every answer like the rest.
func (r *run) replay(ok []jobDone, log *optimaLog) (failed []string) {
	cfg := &solveWorkload{cfg: ug.Config{Workers: 1, TimeLimit: 60}}
	seen := map[string]bool{}
	start := time.Now()
	for _, d := range ok {
		if seen[d.j.key] || time.Since(start).Seconds() >= r.seconds/2 {
			continue
		}
		seen[d.j.key] = true
		p := d.j.local()
		p.key = d.j.key
		s := cfg.solveOnce(p, r.rec, len(r.replayed))
		r.rep.Attempted++
		if _, err := s.verify(log); err != nil {
			failed = append(failed, fmt.Sprintf("%s replayed: %v", d.j.key, err))
		}
		r.replayed = append(r.replayed, s)
	}
	return failed
}
