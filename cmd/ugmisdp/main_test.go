package main

import (
	"bytes"
	"flag"
	"io"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cli"
)

var objectiveLine = regexp.MustCompile(`(?m)^objective (\S+) \(max form\)$`)

// run runs ugmisdp in process and returns the reported objective.
func run(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := cli.Run(app, args, &out, io.Discard); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	m := objectiveLine.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("%v: no objective line in\n%s", args, out.String())
	}
	return m[1]
}

func TestParallelAndSequentialAgree(t *testing.T) {
	par := run(t, "-family", "mkp", "-workers", "2")
	seq := run(t, "-family", "mkp", "-sequential", "-mode", "lp", "-stats")
	if par != seq {
		t.Fatalf("parallel objective %s, sequential %s", par, seq)
	}
}

func TestUnknownFamilyIsAnError(t *testing.T) {
	var out bytes.Buffer
	err := cli.Run(app, []string{"-family", "nope"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown family "nope"`) {
		t.Fatalf("err = %v", err)
	}
}

// TestFlagsPinned pins every flag name and default, so folding the
// command line into the shared driver neither adds nor drops one.
func TestFlagsPinned(t *testing.T) {
	want := "family=ttd forensics= k=0 mode=hybrid n=0 net-connect= net-listen= net-procs=0 " +
		"pprof= profile= racing=true rank=0 seed=1 sequential=false stats=false test-delay-term=0s " +
		"test-panic-rank=0 time=0 trace= watchdog=0s workers=4"
	var got []string
	cli.FlagSet(app).VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if strings.Join(got, " ") != want {
		t.Errorf("flags:\n got %s\nwant %s", strings.Join(got, " "), want)
	}
}
