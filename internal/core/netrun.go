package core

import (
	"fmt"
	"os"
	"os/exec"
	"time"

	"repro/internal/obs"
	"repro/internal/ug"
	netcomm "repro/internal/ug/comm/net"
)

// NetRun describes a process's role in a distributed (multi-process)
// solve over the comm/net transport. Exactly one of the roles applies:
// a coordinator listens (Listen non-empty, or Procs > 0 for the
// self-spawning single-machine mode) and a worker dials (Connect
// non-empty, with a Rank).
type NetRun struct {
	// Listen is the coordinator's rendezvous address ("host:port", or
	// ":0" for an OS-assigned port).
	Listen string
	// Connect is the coordinator address a worker process dials.
	Connect string
	// Rank is this worker process's rank (1-based).
	Rank int
	// Procs, when > 0, makes the coordinator spawn that many worker
	// processes of its own executable on the local machine — the
	// single-machine convenience mode. It overrides ug.Config.Workers.
	Procs int
	// WorkerArgs builds the command line of the rank-th self-spawned
	// worker process, which must dial the coordinator at addr. The
	// command-line driver derives it from its own flags, so this
	// package spells none of them.
	WorkerArgs func(rank int, addr string) []string
	// Seed seeds the transport's retry jitter.
	Seed int64
	// Trace receives a worker's transport events (the coordinator's
	// tracer is taken from ug.Config.Trace instead). May be nil.
	Trace *obs.Tracer
	// Metrics receives a worker endpoint's transport counters (the
	// coordinator's registry is taken from ug.Config.Metrics). May be nil.
	Metrics *obs.Registry
	// Bus is this process's live telemetry bus (the tee sink its tracer
	// writes through); the stall watchdog subscribes to it. May be nil,
	// which disables the watchdog.
	Bus *obs.Bus
	// Watchdog, when > 0, arms a stall watchdog for the duration of the
	// solve: a quiet window of this length with no progress events
	// (dispatch/outcome/status/incumbent/…) emits a `watchdog.stall`
	// trace event and writes a goroutine dump to StallDumpPath. Off by
	// default so deterministic-replay runs are untouched.
	Watchdog time.Duration
	// StallDumpPath is where the watchdog writes its goroutine dump
	// (conventionally `<trace>.stall-goroutines`).
	StallDumpPath string
	// Capture, when armed, is this process's post-mortem bundle writer:
	// watchdog stalls, transport pump panics, worker-loop panics and
	// error returns all capture through it. (The coordinator's solve-path
	// triggers run through ug.Config.Capture — pass the same capturer.)
	Capture *obs.Capturer
	// Fault is the test-only fault-injection plan for a worker's
	// transport endpoint (nil disables injection); the smoke tests use
	// it to stall a solve on purpose.
	Fault *netcomm.FaultPlan
	// Cancel, when non-nil, requests a graceful wind-down once closed
	// (the CLIs close it on SIGINT/SIGTERM). On a worker the comm is
	// closed after a short grace window — the window lets a coordinator
	// that received the same signal drive the ordinary stop protocol
	// first, so outcomes are reported instead of appearing as peer loss.
	// On the coordinator side pass the same channel via ug.Config.Cancel.
	Cancel <-chan struct{}
}

// workerCancelGrace is how long an interrupted worker waits for the
// coordinator-driven stop (the coordinator usually received the same
// signal and interrupts every solver cleanly) before unilaterally
// closing its comm. Either way the worker exits gracefully with a
// flushed trace.
const workerCancelGrace = 2 * time.Second

// Coordinator reports whether this process plays the coordinator role.
func (nr NetRun) Coordinator() bool { return nr.Listen != "" || nr.Procs > 0 }

// Worker reports whether this process plays a worker role.
func (nr NetRun) Worker() bool { return nr.Connect != "" }

// RunNetWorker is a worker process's whole life: presolve the instance
// locally (each process owns its copy — subproblem payloads, not the
// model, cross the wire), dial the coordinator, serve subproblems until
// termination, and hang up. It returns when the coordinator terminates
// the run or the transport reports the coordinator gone.
func RunNetWorker(app App, nr NetRun) (err error) {
	// Both failure edges of a worker process leave a forensics bundle:
	// a panic anywhere below (captured, bundled, rethrown) and an error
	// return (bundled on the way out).
	defer nr.Capture.CapturePanic("net.worker")
	defer func() {
		if err != nil && nr.Capture.Armed() {
			_, _ = nr.Capture.WriteBundle("error", err.Error())
		}
	}()
	if !nr.Worker() {
		return fmt.Errorf("core: RunNetWorker needs a coordinator address")
	}
	if nr.Rank < 1 {
		return fmt.Errorf("core: worker rank must be >= 1, got %d", nr.Rank)
	}
	f := NewFactory(app)
	if _, _, err := f.GlobalPresolve(); err != nil {
		return fmt.Errorf("core: worker presolve: %w", err)
	}
	c, err := netcomm.Dial(nr.Connect, nr.Rank, netcomm.Options{
		Seed: nr.Seed, Trace: nr.Trace, Metrics: nr.Metrics,
		Fault: nr.Fault, Capture: nr.Capture,
	})
	if err != nil {
		return err
	}
	// The watchdog arms after the rendezvous: dial retries can legally
	// take longer than the quiet window, and the trace opener invariant
	// (comm.connect first) must hold.
	wd := startWatchdog(nr, nr.Trace)
	if nr.Cancel != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-nr.Cancel:
			case <-done:
				return
			}
			t := time.NewTimer(workerCancelGrace)
			defer t.Stop()
			select {
			case <-t.C:
				// The coordinator did not stop us within the grace window;
				// close the comm ourselves. Recv unblocks with a synthesized
				// termination and the worker unwinds as if the coordinator
				// were gone.
				_ = c.Close()
			case <-done:
			}
		}()
	}
	ug.RunWorker(nr.Rank, c, f, nr.Trace)
	wd.Stop()
	return c.Close()
}

// startWatchdog arms the stall watchdog described by nr (tr is the
// process's tracer: nr.Trace on a worker, cfg.Trace on the
// coordinator), returning nil — a safe no-op for Stop — when nr does
// not request one.
func startWatchdog(nr NetRun, tr *obs.Tracer) *obs.Watchdog {
	return obs.StartWatchdog(obs.WatchdogConfig{
		Bus:      nr.Bus,
		Tracer:   tr,
		Quiet:    nr.Watchdog,
		DumpPath: nr.StallDumpPath,
		Capture:  nr.Capture,
	})
}

// SolveNetParallel is SolveParallel's distributed-coordinator variant:
// it binds the rendezvous port, optionally self-spawns nr.Procs worker
// processes (re-invoking this executable with nr.WorkerArgs), waits
// for the full roster, and runs the UG coordination loop over the TCP
// transport. The transport inherits cfg.Trace and cfg.Metrics, so
// comm.connect/heartbeat events and transfer-byte counters land in the
// same trace/stats pipeline as the in-process runs.
func SolveNetParallel(app App, cfg ug.Config, nr NetRun) (*ug.Result, *Factory, error) {
	addr := nr.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := netcomm.Listen(addr)
	if err != nil {
		return nil, nil, err
	}
	if nr.Procs > 0 {
		cfg.Workers = nr.Procs
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}

	var procs []*exec.Cmd
	killAll := func() {
		for _, p := range procs {
			_ = p.Process.Kill()
			_ = p.Wait()
		}
	}
	if nr.Procs > 0 {
		exe, err := os.Executable()
		if err != nil {
			_ = ln.Close()
			return nil, nil, fmt.Errorf("core: self-spawn: %w", err)
		}
		for rank := 1; rank <= nr.Procs; rank++ {
			cmd := exec.Command(exe, nr.WorkerArgs(rank, ln.Addr())...)
			// Workers write nothing in normal operation; route what they
			// do write (errors) to stderr so the coordinator's stdout
			// stays machine-readable.
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				killAll()
				_ = ln.Close()
				return nil, nil, fmt.Errorf("core: spawn worker %d: %w", rank, err)
			}
			procs = append(procs, cmd)
		}
	}

	c, err := ln.Rendezvous(cfg.Workers+1, netcomm.Options{
		Seed:    nr.Seed,
		Trace:   cfg.Trace,
		Metrics: cfg.Metrics,
		Capture: nr.Capture,
	})
	if err != nil {
		killAll()
		return nil, nil, fmt.Errorf("core: rendezvous: %w", err)
	}
	cfg.Comm = c
	cfg.RemoteWorkers = true

	f := NewFactory(app)
	wd := startWatchdog(nr, cfg.Trace)
	res, err := ug.Run(f, cfg)
	wd.Stop()
	// Close drains the termination frames to the workers and says
	// goodbye; the workers exit on their own after that.
	_ = c.Close()
	for i, p := range procs {
		if werr := p.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("core: worker process %d: %w", i+1, werr)
		}
	}
	return res, f, err
}
