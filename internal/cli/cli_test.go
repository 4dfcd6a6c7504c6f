package cli

import (
	"bufio"
	"errors"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// toy registers two app flags and builds nothing.
var toy = App{Name: "toy", Flags: func(fs *flag.FlagSet) func(int64) (*Instance, error) {
	fs.String("family", "ttd", "")
	fs.Int("n", 0, "")
	return func(int64) (*Instance, error) { return &Instance{}, nil }
}}

// TestWorkerArgs pins a self-spawned worker's argv: the app flags set on
// the coordinator's command line, the shared flags a worker needs, and
// its role, but no coordinator-only flag.
func TestWorkerArgs(t *testing.T) {
	d := newDriver(toy, nil, nil)
	if err := d.fs.Parse(strings.Fields("-family mkp -n 6 -seed 3 -workers 3 -stats -racing -net-procs 2 -trace run.trace -watchdog 1s -pprof :0")); err != nil {
		t.Fatal(err)
	}
	got := d.workerArgs(&telemetry{capture: &obs.Capturer{Dir: "pm"}})(2, "127.0.0.1:7")
	want := strings.Fields("-family=mkp -n=6 -seed=3 -trace run.trace.rank2 -watchdog 1s -forensics pm -net-connect 127.0.0.1:7 -rank 2")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("worker argv\n got %q\nwant %q", got, want)
	}
}

// TestAppGlueUnder200Lines gates the paper's headline claim: an
// application becomes parallel with under 200 lines of glue (173 for
// stp_plugins.cpp, 106 for misdp_plugins.cpp). Here an app's glue is its
// core.App registration plus its command, counted without blank and
// comment lines.
func TestAppGlueUnder200Lines(t *testing.T) {
	for app, files := range map[string][]string{
		"ugsteiner": {"../steiner/app.go", "../../cmd/ugsteiner/main.go"},
		"ugmisdp":   {"../misdp/app.go", "../../cmd/ugmisdp/main.go"},
	} {
		n := 0
		for _, f := range files {
			n += codeLines(t, f)
		}
		t.Logf("%s glue: %d lines", app, n)
		if n > 200 {
			t.Errorf("%s glue is %d lines (%v), above the paper's 200", app, n, files)
		}
	}
}

// codeLines counts a Go file's lines that are neither blank nor a
// comment line.
func codeLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "//") {
			n++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestExitCode(t *testing.T) {
	for _, c := range []struct {
		err  error
		code int
		msg  string
	}{
		{nil, 0, ""},
		{flag.ErrHelp, 0, ""},
		{errFlags, 2, ""}, // the flag package already explained it
		{Usagef("unknown family %q", "x"), 2, "toy: unknown family \"x\"\n"},
		{errors.New("boom"), 1, "toy: boom\n"},
	} {
		var stderr strings.Builder
		if code := exitCode("toy", c.err, &stderr); code != c.code || stderr.String() != c.msg {
			t.Errorf("%v: exit %d with %q, want %d with %q", c.err, code, stderr.String(), c.code, c.msg)
		}
	}
}
