// Command ugmisdp is the parallel mixed-integer SDP solver — the
// ug[SCIP-SDP,*] binary. It generates an instance from one of the three
// CBLIB application families (truss topology design, cardinality-
// constrained least squares, minimum k-partitioning), then solves it
// either sequentially (LP or SDP mode) or in parallel with the racing
// LP/SDP hybrid.
//
// Usage:
//
//	ugmisdp -family ttd -workers 8
//	ugmisdp -family mkp -n 7 -k 3 -mode sdp -workers 1
//	ugmisdp -family cls -racing -workers 16
//	ugmisdp -family mkp -sequential -mode lp -stats
//
// The binary is a registration with the shared solver driver
// (internal/cli), which owns every flag not defined here, the
// distributed -net-* modes included.
package main

import (
	"flag"
	"fmt"

	"repro/internal/cli"
	"repro/internal/misdp"
	"repro/internal/misdp/testsets"
	"repro/internal/ug"
)

func main() { cli.Main(app) }

// racingTime is the racing phase length of the LP/SDP hybrid, seconds.
const racingTime = 0.3

// app registers ug[SCIP-SDP,*] with the solver driver. The instances
// are maximization problems that scip solves in minimization form, so
// every reported objective is shown negated.
var app = cli.App{
	Name:        "ugmisdp",
	Racing:      true,
	RacingTime:  racingTime,
	Objective:   "%.6g (max form)",
	Interrupted: "status   interrupted (primal %.6g dual %.6g, max form)",
	MaxForm:     true,
	Flags: func(fs *flag.FlagSet) func(int64) (*cli.Instance, error) {
		family := fs.String("family", "ttd", "instance family: ttd, cls, mkp")
		n := fs.Int("n", 0, "size parameter (bars / features / vertices; 0 = default)")
		k := fs.Int("k", 0, "cardinality / partition classes (0 = default)")
		mode := fs.String("mode", "hybrid", "solution mode: lp, sdp, hybrid (racing)")
		seq := fs.Bool("sequential", false, "run the sequential solver instead of UG")
		return func(seed int64) (*cli.Instance, error) {
			inst := testsets.Family(*family, *n, *k, seed)
			if inst == nil {
				return nil, cli.Usagef("unknown family %q", *family)
			}
			in := &cli.Instance{
				App: misdp.NewApp(inst, 16),
				Summary: fmt.Sprintf("instance %s: %d variables, %d blocks, %d rows",
					inst.Name, inst.M, len(inst.Blocks), len(inst.Rows)),
				Configure: func(cfg *ug.Config) {
					if *mode == "hybrid" { // the hybrid is racing, whatever -racing says
						cfg.RampUp, cfg.RacingTime = ug.RampUpRacing, racingTime
					}
				},
			}
			set := misdp.SDPSettings()
			if *mode == "lp" {
				in.App, set = misdp.NewAppLP(inst, 16), misdp.LPSettings()
			}
			if *seq {
				in.Sequential = &set
			}
			return in, nil
		}
	},
}
