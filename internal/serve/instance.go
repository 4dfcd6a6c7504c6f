package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/misdp"
	"repro/internal/misdp/testsets"
	"repro/internal/steiner"
	"repro/internal/steiner/puc"
)

// buildApp materializes the instance a Spec describes into a core.App,
// plus the presolve-cache key for it. Instance construction is
// deterministic in the spec (generators are seeded), so the key is a
// pure function of the instance content:
//
//   - inline STP text hashes its exact bytes — identical submissions
//     collide, trivially different whitespace does not (content-hash,
//     not semantic-hash, by design);
//   - named/generated instances hash their canonical parameter string,
//     which the generators map to one graph.
//
// The key deliberately excludes solve-shape fields (workers, racing,
// mode, limits): global presolve depends only on the instance and its
// ProblemDef, so an LP-mode and an SDP-mode submission of the same
// MISDP share one cache entry.
func buildApp(sp *Spec) (key string, app core.App, err error) {
	switch sp.Kind {
	case "stp":
		return buildSTP(sp)
	case "misdp":
		return buildMISDP(sp)
	}
	return "", core.App{}, fmt.Errorf("unknown job kind %q", sp.Kind)
}

// cacheKey hashes a canonical instance description into the cache key.
func cacheKey(kind, canonical string) string {
	sum := sha256.Sum256([]byte(kind + "\x00" + canonical))
	return kind + ":" + hex.EncodeToString(sum[:16])
}

func buildSTP(sp *Spec) (string, core.App, error) {
	var (
		spg       *steiner.SPG
		canonical string
	)
	switch {
	case sp.STP != "":
		g, err := steiner.ReadSTP(strings.NewReader(sp.STP))
		if err != nil {
			return "", core.App{}, fmt.Errorf("parse inline stp: %w", err)
		}
		spg = g
		canonical = "inline\x00" + sp.STP
	case sp.Instance != "":
		spg = puc.Named(sp.Instance)
		if spg == nil {
			return "", core.App{}, fmt.Errorf("unknown named instance %q", sp.Instance)
		}
		canonical = "named\x00" + sp.Instance
	case sp.Gen != nil:
		g := sp.Gen
		seed := g.Seed
		if seed == 0 {
			seed = 1
		}
		ps := puc.Spec(*g)
		ps.Seed = seed
		if spg = puc.Generate(ps); spg == nil {
			return "", core.App{}, fmt.Errorf("unknown gen family %q (want hc, cc, bip)", g.Family)
		}
		canonical = fmt.Sprintf("gen\x00%s d=%d a=%d t=%d s=%d deg=%d p=%v seed=%d",
			g.Family, g.D, g.A, g.Terminals, g.Steiner, g.Deg, g.Perturbed, seed)
	default:
		return "", core.App{}, fmt.Errorf("kind stp needs one of stp, instance, gen")
	}
	return cacheKey("stp", canonical), steiner.NewApp(spg), nil
}

func buildMISDP(sp *Spec) (string, core.App, error) {
	seed := sp.Seed
	if seed == 0 {
		seed = 1
	}
	inst := testsets.Family(sp.Family, sp.N, sp.K, seed)
	if inst == nil {
		return "", core.App{}, fmt.Errorf("unknown misdp family %q (want ttd, cls, mkp)", sp.Family)
	}
	canonical := fmt.Sprintf("%s n=%d k=%d seed=%d", sp.Family, sp.N, sp.K, seed)
	app := misdp.NewApp(inst, 16)
	if sp.Mode == "lp" {
		app = misdp.NewAppLP(inst, 16)
	}
	return cacheKey("misdp", canonical), app, nil
}
