// Package cli is the one solver driver behind every ug[SCIP-*,*]
// binary, the analogue of UG's generic fscip/parascip executables. A
// solver binary is a registration: an App naming its own flags, how
// they select an instance, and the few values that differ between
// solvers. The driver owns everything else: the shared flags and the
// telemetry plane, signal handling and CPU profiling, the sequential,
// in-process and distributed (coordinator or worker) dispatch with the
// stall watchdog, the result report and the -stats tables. It never
// asks which solver it runs.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scip"
	"repro/internal/ug"
	"repro/internal/ug/comm"
	netcomm "repro/internal/ug/comm/net"
)

// App is one solver binary's registration with the driver.
type App struct {
	// Name is the binary name; it prefixes every error Main reports.
	Name string
	// Racing is the -racing default and RacingTime the length of the
	// racing phase in seconds.
	Racing     bool
	RacingTime float64
	// Objective formats one objective value on the `objective` line, and
	// Interrupted the status line(s) of an interrupted run from its
	// primal and dual values. MaxForm negates every shown value: the
	// app solves a maximization problem in scip's minimization form.
	Objective   string
	Interrupted string
	MaxForm     bool
	// Flags registers the app's own flags on fs and returns the function
	// that, after parsing, builds the instance they select; seed is the
	// shared -seed value.
	Flags func(fs *flag.FlagSet) func(seed int64) (*Instance, error)
}

// Instance is what an app's flags select.
type Instance struct {
	App core.App
	// Summary describes the instance on the report's first line.
	Summary string
	// Sequential, when non-nil, runs the plain solver with these
	// settings instead of UG.
	Sequential *scip.Settings
	// Configure, when non-nil, applies the app's own options to the UG
	// configuration the shared flags built.
	Configure func(*ug.Config)
}

// usageError is a bad command line; Main exits 2 on it, as the flag
// package does.
type usageError struct{ error }

// Usagef reports a bad command line from an app's instance builder.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// errFlags is a command line the flag package has already rejected and
// explained on stderr.
var errFlags error = usageError{errors.New("invalid flags")}

// Main runs app on the process's command line. It is the one place a
// solver binary exits.
func Main(app App) {
	os.Exit(exitCode(app.Name, Run(app, os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// exitCode reports err on stderr and maps it to the process exit status:
// 0 on success or -h, 2 on a bad command line, 1 otherwise.
func exitCode(name string, err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != errFlags {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
	}
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// driver is one run: the parsed command line and where the report and
// the diagnostics go.
type driver struct {
	app         App
	out, stderr io.Writer
	fs          *flag.FlagSet
	own         map[string]bool // the flags the app registered
	build       func(seed int64) (*Instance, error)

	workers, rank, netProcs, testPanicRank int
	racing, stats                          bool
	timeLimit                              float64
	seed                                   int64
	trace, profile, pprof, forensics       string
	netListen, netConnect                  string
	watchdog, testDelayTerm                time.Duration
}

// FlagSet returns app's full command line — its own flags and the
// shared ones — with their defaults.
func FlagSet(app App) *flag.FlagSet { return newDriver(app, io.Discard, io.Discard).fs }

func newDriver(app App, out, stderr io.Writer) *driver {
	d := &driver{app: app, out: out, stderr: stderr, fs: flag.NewFlagSet(app.Name, flag.ContinueOnError), own: map[string]bool{}}
	fs := d.fs
	fs.SetOutput(stderr)
	d.build = app.Flags(fs)
	fs.VisitAll(func(f *flag.Flag) { d.own[f.Name] = true })
	fs.IntVar(&d.workers, "workers", 4, "number of ParaSolvers")
	fs.BoolVar(&d.racing, "racing", app.Racing, "use racing ramp-up")
	fs.Float64Var(&d.timeLimit, "time", 0, "time limit in seconds (0 = none)")
	fs.Int64Var(&d.seed, "seed", 1, "seed for instance generation and the transport's retry jitter")
	fs.StringVar(&d.trace, "trace", "", "write a JSONL coordination-event trace to this file (render with ugtrace)")
	fs.BoolVar(&d.stats, "stats", false, "print the full run-statistics and metrics tables")
	fs.StringVar(&d.profile, "profile", "", "write a CPU profile to this file")
	fs.StringVar(&d.netListen, "net-listen", "", "run as distributed coordinator: rendezvous address to listen on (host:port, :0 = any)")
	fs.StringVar(&d.netConnect, "net-connect", "", "run as distributed worker: coordinator address to dial")
	fs.IntVar(&d.rank, "rank", 0, "this worker's rank (with -net-connect; 1-based)")
	fs.IntVar(&d.netProcs, "net-procs", 0, "single-machine distributed mode: self-spawn N worker processes")
	fs.StringVar(&d.pprof, "pprof", "", "serve net/http/pprof, /statusz, Prometheus /metrics and the /events SSE stream on this address during the solve")
	fs.DurationVar(&d.watchdog, "watchdog", 0, "stall watchdog: after this long without progress events, emit watchdog.stall and write a goroutine dump (0 = off)")
	fs.StringVar(&d.forensics, "forensics", "", "directory for post-mortem forensics bundles (default: <trace>.postmortem when -trace is set, else ug-postmortem)")
	// Fault-injection hooks for the post-mortem smoke tests: they crash
	// or stall a healthy run on purpose so the forensics pipeline can be
	// exercised end to end.
	fs.IntVar(&d.testPanicRank, "test-panic-rank", 0, "fault injection: this in-process worker rank panics on its first subproblem (0 = off)")
	fs.DurationVar(&d.testDelayTerm, "test-delay-term", 0, "fault injection: a net worker delays its first outgoing terminated frame by this long, stalling the coordinator (0 = off)")
	return d
}

// Run parses args, solves, and writes the report to stdout and
// diagnostics to stderr. It returns every failure instead of exiting.
func Run(app App, args []string, stdout, stderr io.Writer) (err error) {
	d := newDriver(app, stdout, stderr)
	if err := d.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlags
	}
	inst, err := d.build(d.seed)
	if err != nil {
		return err
	}
	if d.profile != "" {
		pf, err := os.Create(d.profile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			_ = pf.Close() // nothing was written; the start error is the one to report
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := pf.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	t, err := d.telemetry()
	if err != nil {
		return err
	}
	// The sequential solver has no cooperative stop channel; leaving the
	// default signal disposition there keeps ^C an immediate exit.
	var cancel <-chan struct{}
	if inst.Sequential == nil {
		c, stop := cancelOnSignal(app.Name, stderr)
		defer stop()
		cancel = c
	}

	var report func() error
	switch {
	case d.netConnect != "":
		err = d.worker(inst, t, cancel)
	case inst.Sequential != nil:
		report = d.sequential(inst, t)
	default:
		report, err = d.parallel(inst, t, cancel)
	}
	if cerr := t.tracer.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil || report == nil {
		return err
	}
	return report()
}

// worker is a distributed worker process's whole life. It has no output
// of its own: it presolves its copy of the instance, serves subproblems,
// and exits with the coordinator. With -trace it writes its own
// per-rank trace, with -pprof it exposes its own debug server, and with
// -watchdog it arms its own stall watchdog.
func (d *driver) worker(inst *Instance, t *telemetry, cancel <-chan struct{}) error {
	var fault *netcomm.FaultPlan
	if d.testDelayTerm > 0 {
		fault = netcomm.NewFaultPlan(netcomm.FaultRule{
			Tag: comm.TagTerminated, Nth: 1, Action: netcomm.FaultDelay, Delay: d.testDelayTerm,
		})
	}
	return core.RunNetWorker(inst.App, core.NetRun{
		Connect: d.netConnect, Rank: d.rank, Seed: d.seed,
		Trace: t.tracer, Metrics: t.reg, Cancel: cancel,
		Bus: t.bus, Watchdog: d.watchdog, StallDumpPath: t.dump,
		Capture: t.capture, Fault: fault,
	})
}

// workerArgs is the argv of a self-spawned worker: every app flag set on
// this command line, so the worker builds the same instance, the shared
// flags that shape a worker, and its role.
func (d *driver) workerArgs(t *telemetry) func(rank int, addr string) []string {
	return func(rank int, addr string) []string {
		var args []string
		d.fs.Visit(func(f *flag.Flag) {
			if d.own[f.Name] || f.Name == "seed" || f.Name == "test-delay-term" {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		if d.trace != "" {
			// One trace per process: the inputs `ugtrace -merge` joins.
			args = append(args, "-trace", fmt.Sprintf("%s.rank%d", d.trace, rank))
		}
		if d.watchdog > 0 {
			args = append(args, "-watchdog", d.watchdog.String())
		}
		// Every process of the run drops its bundles in one directory
		// (bundle names embed the pid, so processes never collide).
		return append(args, "-forensics", t.capture.Dir, "-net-connect", addr, "-rank", strconv.Itoa(rank))
	}
}

// parallel runs the UG coordinator, in process or over the net
// transport, and returns the report to print once the trace is closed.
func (d *driver) parallel(inst *Instance, t *telemetry, cancel <-chan struct{}) (func() error, error) {
	cfg := ug.Config{
		Workers: d.workers, TimeLimit: d.timeLimit, Trace: t.tracer, Metrics: t.reg,
		Cancel: cancel, Capture: t.capture, TestPanicRank: d.testPanicRank,
	}
	if d.racing {
		cfg.RampUp = ug.RampUpRacing
		cfg.RacingTime = d.app.RacingTime
	}
	if inst.Configure != nil {
		inst.Configure(&cfg)
	}
	fmt.Fprintln(d.out, inst.Summary)
	var (
		res *ug.Result
		f   *core.Factory
		err error
	)
	if d.netListen != "" || d.netProcs > 0 {
		res, f, err = core.SolveNetParallel(inst.App, cfg, core.NetRun{
			Listen: d.netListen, Procs: d.netProcs, Seed: d.seed, WorkerArgs: d.workerArgs(t),
			Bus: t.bus, Watchdog: d.watchdog, StallDumpPath: t.dump, Capture: t.capture,
		})
	} else {
		wd := d.startWatchdog(t)
		res, f, err = core.SolveParallel(inst.App, cfg)
		wd.Stop()
	}
	if err != nil {
		return nil, err
	}
	return func() error { return d.report(res, f.ObjOffset(), t.reg) }, nil
}

// sequential runs the plain solver without UG and returns its report.
func (d *driver) sequential(inst *Instance, t *telemetry) func() error {
	fmt.Fprintln(d.out, inst.Summary)
	set := *inst.Sequential
	set.TimeLimit = d.timeLimit
	wd := d.startWatchdog(t)
	sv, st, offset := core.SolveSequentialTraced(inst.App, set, t.tracer)
	wd.Stop()
	return func() error {
		w := d.out
		fmt.Fprintf(w, "status   %v\n", st)
		if inc := sv.Incumbent(); inc != nil {
			fmt.Fprintf(w, "objective "+d.app.Objective+"\n", d.shown(inc.Obj+offset))
		}
		ss := sv.Stats
		fmt.Fprintf(w, "nodes    %d\n", ss.Nodes)
		if !d.stats {
			return nil
		}
		fmt.Fprintln(w, "\n--- solver statistics ---")
		for _, row := range []struct {
			name  string
			value int64
		}{
			{"nodes", ss.Nodes},
			{"LP iterations", ss.LPIterations},
			{"cuts added", ss.CutsAdded},
			{"solutions found", ss.SolsFound},
			{"max depth", int64(ss.MaxDepth)},
			{"propagator fixings", ss.PropFixings},
		} {
			fmt.Fprintf(w, "%-18s  %d\n", row.name, row.value)
		}
		ph := ss.Phases
		fmt.Fprintf(w, "%-18s  LP %.3f  relax %.3f  sepa %.3f  heur %.3f  prop %.3f\n",
			"phase times (s)", ph.LP, ph.Relax, ph.Separation, ph.Heuristics, ph.Propagation)
		return nil
	}
}

// shown maps an original-space objective value to its displayed form.
func (d *driver) shown(v float64) float64 {
	if d.app.MaxForm {
		return -v
	}
	return v
}

// report prints a UG run's outcome and coordination statistics.
func (d *driver) report(res *ug.Result, offset float64, reg *obs.Registry) error {
	w, st := d.out, res.Stats
	switch {
	case res.Optimal:
		fmt.Fprintf(w, "status   optimal\nobjective "+d.app.Objective+"\n", d.shown(res.Obj+offset))
	case res.Infeasible:
		fmt.Fprintln(w, "status   infeasible")
	default:
		fmt.Fprintf(w, d.app.Interrupted+"\n", d.shown(st.FinalPrimal+offset), d.shown(st.FinalDual+offset))
	}
	fmt.Fprintf(w, "time     %.2fs (root %.2fs)\n", st.Time, st.RootTime)
	fmt.Fprintf(w, "nodes    %d total, %d open at end, %d transferred, %d collected\n",
		st.TotalNodes, st.OpenAtEnd, st.Dispatched, st.Collected)
	fmt.Fprintf(w, "solvers  max active %d (first at %.2fs)\n", st.MaxActive, st.FirstMaxActiveTime)
	if st.CheckpointErrors > 0 {
		fmt.Fprintf(w, "warning  %d checkpoint save(s) failed; the file on disk may be stale\n",
			st.CheckpointErrors)
	}
	if st.RacingWinner >= 0 {
		fmt.Fprintf(w, "racing   winner settings %d (%s), solved in racing: %v\n",
			st.RacingWinner, st.RacingWinnerName, st.SolvedInRacing)
	}
	for i, r := range st.IdleRatio {
		fmt.Fprintf(w, "idle[%d]  %.1f%%\n", i+1, 100*r)
	}
	if !d.stats {
		return nil
	}
	fmt.Fprintln(w, "\n--- run statistics ---")
	if err := ug.FormatStats(w, st); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n--- metrics ---")
	return obs.WriteTable(w, reg.Snapshot())
}

// telemetry bundles one process's observability plumbing: the tracer
// (over the flight recorder, the file sink, the live bus, or all
// three), the bus live subscribers attach to, the metrics registry, the
// forensics capturer every failure edge bundles through (it holds the
// always-on flight recorder), and the watchdog's dump path.
type telemetry struct {
	tracer  *obs.Tracer
	bus     *obs.Bus
	reg     *obs.Registry
	capture *obs.Capturer
	dump    string
}

// telemetry wires the telemetry plane from the flags. The file sink
// (when -trace is given) stays the authoritative trace: the flight
// recorder tees in front of it (forwarding downstream first, so the
// file bytes are identical either way), and the bus tees in front of
// the recorder only when something live wants events (-pprof's /events
// stream or the -watchdog). The recorder and the metrics registry are
// always on, which makes a post-mortem bundle useful on a run that had
// no -trace, and the capturer is what every failure edge (panic,
// watchdog stall, run error) writes its bundle through. With -pprof it
// also starts the debug server (which lives until process exit) serving
// pprof, /statusz, /metrics and /events.
func (d *driver) telemetry() (*telemetry, error) {
	t := &telemetry{reg: obs.NewRegistry()}
	var sink obs.Sink
	if d.trace != "" {
		fs, err := obs.NewFileSink(d.trace)
		if err != nil {
			return nil, err
		}
		sink = fs
	}
	rec := obs.NewRecorder(sink, 0)
	sink = rec
	if d.pprof != "" || d.watchdog > 0 {
		t.bus = obs.NewBus(sink, t.reg)
		sink = t.bus
	}
	t.tracer = obs.NewTracer(sink)
	dir := d.forensics
	if dir == "" {
		dir = "ug-postmortem"
		if d.trace != "" {
			dir = d.trace + ".postmortem"
		}
	}
	// A bundle records the command line that selected the instance.
	extra := map[string]string{"seed": fmt.Sprint(d.seed), "workers": fmt.Sprint(d.workers)}
	d.fs.VisitAll(func(f *flag.Flag) {
		if d.own[f.Name] && f.Value.String() != "" {
			extra[f.Name] = f.Value.String()
		}
	})
	t.capture = &obs.Capturer{Dir: dir, Recorder: rec, Registry: t.reg, Extra: extra}
	if d.watchdog > 0 {
		t.dump = "ug-stall-goroutines.txt"
		if d.trace != "" {
			t.dump = d.trace + ".stall-goroutines"
		}
	}
	if d.pprof != "" {
		ds, err := obs.StartDebugServer(d.pprof, t.reg, t.bus)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(d.stderr, "debug server on http://%s (/debug/pprof/, /statusz, /metrics, /events)\n", ds.Addr())
	}
	return t, nil
}

// startWatchdog arms the in-process stall watchdog; it returns nil, a
// safe no-op for Stop, without -watchdog.
func (d *driver) startWatchdog(t *telemetry) *obs.Watchdog {
	return obs.StartWatchdog(obs.WatchdogConfig{
		Bus: t.bus, Tracer: t.tracer, Quiet: d.watchdog, DumpPath: t.dump, Capture: t.capture,
	})
}

// cancelOnSignal returns a channel closed on the first SIGINT/SIGTERM,
// and the function that stops listening. The solve stops cooperatively
// (the coordinator runs its ordinary stop protocol, a net worker closes
// its comm after a short grace), so the trace file is complete
// (run.start … run.end) and validates instead of being truncated
// mid-write. A second signal force-exits.
func cancelOnSignal(name string, stderr io.Writer) (<-chan struct{}, func()) {
	cancel := make(chan struct{})
	done := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case got := <-sig:
			fmt.Fprintf(stderr, "%s: %v — stopping cooperatively (signal again to force quit)\n", name, got)
			close(cancel)
		case <-done:
			return
		}
		select {
		case <-sig:
			os.Exit(1)
		case <-done:
		}
	}()
	return cancel, func() {
		signal.Stop(sig)
		close(done)
	}
}
