package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/obs"
)

func TestRacingRunWritesValidTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.trace")
	var out bytes.Buffer
	if err := cli.Run(app, []string{"-instance", "cc3-4p", "-workers", "2", "-racing", "-trace", trace}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "status   optimal\nobjective 940\n") {
		t.Fatalf("report:\n%s", out.String())
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(events); err != nil {
		t.Fatal(err)
	}
}

func TestBadInstanceIsAnError(t *testing.T) {
	for _, args := range [][]string{{"-instance", "nope"}, {}, {"-file", filepath.Join(t.TempDir(), "missing.stp")}} {
		var out bytes.Buffer
		if err := cli.Run(app, args, &out, io.Discard); err == nil {
			t.Errorf("%v: no error", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}

// TestFlagsPinned pins every flag name and default, so folding the
// command line into the shared driver neither adds nor drops one.
func TestFlagsPinned(t *testing.T) {
	want := "checkpoint= comm=channel file= forensics= instance= net-connect= net-listen= net-procs=0 " +
		"pprof= profile= racing=false rank=0 restart= seed=1 stats=false test-delay-term=0s " +
		"test-panic-rank=0 time=0 trace= watchdog=0s workers=4"
	var got []string
	cli.FlagSet(app).VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if strings.Join(got, " ") != want {
		t.Errorf("flags:\n got %s\nwant %s", strings.Join(got, " "), want)
	}
}
