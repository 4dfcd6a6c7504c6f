package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/misdp"
	"repro/internal/steiner"
)

// pinnedSpecs covers every instance source and generator family, with
// defaulted and explicit parameters alike.
var pinnedSpecs = []Spec{
	{Kind: "stp", Instance: "cc3-4p"},
	{Kind: "stp", Gen: &GenSpec{Family: "hc", D: 4, Terminals: 8, Perturbed: true, Seed: 3}},
	{Kind: "stp", Gen: &GenSpec{Family: "hc", D: 3, Perturbed: true, Seed: 1}},
	{Kind: "stp", Gen: &GenSpec{Family: "cc", D: 3, Seed: 7}},
	{Kind: "stp", Gen: &GenSpec{Family: "cc", D: 3, A: 4, Terminals: 6, Perturbed: true, Seed: 2}},
	{Kind: "stp", Gen: &GenSpec{Family: "bip"}},
	{Kind: "stp", Gen: &GenSpec{Family: "bip", Terminals: 10, Steiner: 30, Deg: 2, Seed: 4}},
	{Kind: "misdp", Family: "ttd", N: 8, Seed: 5},
	{Kind: "misdp", Family: "ttd"},
	{Kind: "misdp", Family: "cls", N: 5, K: 2, Seed: 3},
	{Kind: "misdp", Family: "cls"},
	{Kind: "misdp", Family: "mkp", N: 7, K: 3, Seed: 2},
	{Kind: "misdp", Family: "mkp", Mode: "lp"},
}

// pinnedInstances holds each pinned spec's cache key, a digest of the
// instance it generates and the name of its default settings. A change here means ugserve would key or solve
// different jobs for the same submissions.
var pinnedInstances = []string{
	"stp:8b2ca2183de0da90a573029945bfe582 1ecb031b702a7563e9d31002 stp-default",
	"stp:2b709ae9d90baaf4281f74fbb57ed30c f3110c07962158d37022fe30 stp-default",
	"stp:86c08b7f244f0ba9c4372403388aa556 5da2cdcf2bbf6d7617cf3acc stp-default",
	"stp:396642764798854d3045246eb2102090 b0ad0738482b66950ea221f3 stp-default",
	"stp:9e4681bda0a522de49d8b433858ef82f 9add3b258c4030ee5720ed8a stp-default",
	"stp:b62f5ca7e4b96d1beebbf019adf68f78 a0a180f002e65891614cdf73 stp-default",
	"stp:c930e740e244e8d5d1cf801e2821730c 54e0918c43e9ca921d134dbf stp-default",
	"misdp:cc24e23cd653b77d8f6af1a066213112 b18dfedd8e273d761540136a 1:sdp",
	"misdp:d8c95c21e2e824339a01a117dc00b772 8dcf1422eb7f435bd583f4ac 1:sdp",
	"misdp:3387e4923255bca7774d977d7b89d832 bd36f7276029a1529f51fb57 1:sdp",
	"misdp:30385789f4b6388c668c7a7c18cfbcc8 a5a448bf6263afaa985e5501 1:sdp",
	"misdp:5c78356e05c02eb40cb4883b46da0e7a 1c1b51d31aaba5d471213640 1:sdp",
	"misdp:4631cb3c64937030e64e1025e974ee5d cd5038678a90c1adf61c2539 lp-default",
}

// fingerprint digests a generated instance's full content.
func fingerprint(t *testing.T, data any) string {
	t.Helper()
	h := sha256.New()
	switch d := data.(type) {
	case *steiner.SPG:
		if err := steiner.WriteSTP(h, d); err != nil {
			t.Fatal(err)
		}
	case *misdp.MISDP:
		fmt.Fprintf(h, "%s %d %v %v %v %v %v\n", d.Name, d.M, d.B, d.Lo, d.Up, d.IsInt, d.Rows)
		for _, b := range d.Blocks {
			fmt.Fprintf(h, "block %d %v\n", b.N, *b.C)
			for _, a := range b.A {
				fmt.Fprintf(h, "%v\n", a)
			}
		}
	default:
		t.Fatalf("unexpected instance type %T", data)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func TestInstancesPinned(t *testing.T) {
	var got []string
	for _, sp := range pinnedSpecs {
		key, app, err := buildApp(&sp)
		if err != nil {
			t.Fatalf("buildApp(%+v): %v", sp, err)
		}
		got = append(got, key+" "+fingerprint(t, app.Data)+" "+app.Settings[0].Name)
	}
	if len(got) != len(pinnedInstances) {
		t.Fatalf("%d specs, %d pins", len(got), len(pinnedInstances))
	}
	for i, g := range got {
		if g != pinnedInstances[i] {
			t.Errorf("spec %+v: got %s, pinned %s", pinnedSpecs[i], g, pinnedInstances[i])
		}
	}
}
