// Command ugsteiner is the parallel Steiner tree solver — the
// ug[SCIP-Jack,*] binary. It reads a SteinLib .stp file (or generates a
// named PUC-family analogue), runs the UG-parallelized SCIP-Jack
// pipeline, and reports the solution plus the coordination statistics
// the paper's tables are built from.
//
// Usage:
//
//	ugsteiner -file instance.stp -workers 8
//	ugsteiner -instance hc6u -workers 16 -racing
//	ugsteiner -instance bip52u -workers 8 -time 30 -checkpoint run.ckpt
//	ugsteiner -instance bip52u -workers 8 -restart run.ckpt
//
// Distributed (multi-process) mode over the comm/net TCP transport:
//
//	ugsteiner -instance hc6u -net-procs 2              # self-spawn 2 workers
//	ugsteiner -instance hc6u -net-listen :7071 -workers 2   # coordinator
//	ugsteiner -instance hc6u -net-connect host:7071 -rank 1 # worker
//
// The binary is a registration with the shared solver driver
// (internal/cli), which owns every flag not defined here.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/steiner"
	"repro/internal/steiner/puc"
	"repro/internal/ug"
	"repro/internal/ug/comm"
)

func main() { cli.Main(app) }

// app registers ug[SCIP-Jack,*] with the solver driver.
var app = cli.App{
	Name:        "ugsteiner",
	RacingTime:  0.5,
	Objective:   "%.6g",
	Interrupted: "status   interrupted\nprimal   %.6g\ndual     %.6g",
	Flags: func(fs *flag.FlagSet) func(int64) (*cli.Instance, error) {
		file := fs.String("file", "", "SteinLib .stp file to solve")
		instance := fs.String("instance", "", "named PUC-family analogue (cc3-4p, cc3-5u, cc5-3p, hc6u, hc6p, hc7u, hc7p, hc10p, bip52u)")
		checkpoint := fs.String("checkpoint", "", "checkpoint file to write")
		restart := fs.String("restart", "", "checkpoint file to restore")
		commKind := fs.String("comm", "channel", "communicator: channel (shared memory) or gob (serialized, MPI-like)")
		return func(int64) (*cli.Instance, error) {
			spg, err := load(*file, *instance)
			if err != nil {
				return nil, err
			}
			return &cli.Instance{
				App: steiner.NewApp(spg),
				Summary: fmt.Sprintf("instance %s: %d vertices, %d edges, %d terminals",
					spg.Name, spg.G.AliveVertices(), spg.G.AliveEdges(), spg.NumTerminals()),
				Configure: func(cfg *ug.Config) {
					cfg.CheckpointPath, cfg.RestartFrom = *checkpoint, *restart
					if *commKind == "gob" {
						cfg.Comm = comm.NewGobComm(cfg.Workers + 1)
					}
				},
			}, nil
		}
	},
}

// load reads the instance from -file or generates the -instance one.
func load(file, instance string) (*steiner.SPG, error) {
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return steiner.ReadSTP(f)
	case instance != "":
		if spg := puc.Named(instance); spg != nil {
			return spg, nil
		}
		return nil, fmt.Errorf("unknown instance %q", instance)
	}
	return nil, cli.Usagef("one of -file or -instance is required")
}
