// Package puc generates Steiner tree instances from the same structured
// families as the PUC benchmark set (SteinLib) that the paper attacks:
// hypercubes (hc*), code-coverage/Hamming graphs (cc*) and bipartite
// instances (bip*), each in a unit-cost (u) and a perturbed-cost (p)
// variant. PUC was constructed specifically to defy reduction
// techniques, and these families retain that property at reduced
// dimension: presolving removes almost nothing and massive
// branch-and-bound search is required — the regime the paper's
// parallelization study targets.
//
// The original PUC instances (hc7u has 128 vertices and 448 edges,
// bip52u has 2200 vertices) are substituted by the same constructions at
// dimensions that a single machine can attack in seconds to minutes; see
// DESIGN.md for the substitution rationale.
package puc

import (
	"math/rand"

	"repro/internal/steiner"
)

// Hypercube builds the hc-family instance of dimension d: vertices are
// the 2^d binary words, edges join words at Hamming distance one, and
// the terminals are the words of even parity (half the vertices), which
// is what makes the instances reduction-resistant. Unit costs when
// perturbed is false; otherwise integer costs in [100,110] seeded by
// seed, mirroring the p-variants' small cost spread.
func Hypercube(d int, perturbed bool, seed int64) *steiner.SPG {
	n := 1 << d
	s := steiner.NewSPG(n)
	s.Name = hcName(d, perturbed)
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			w := v ^ (1 << b)
			if v < w {
				c := 1.0
				if perturbed {
					c = float64(100 + rng.Intn(11))
				}
				s.G.AddEdge(v, w, c)
			}
		}
		if parity(v) == 0 {
			s.Terminal[v] = true
		}
	}
	return s
}

// HypercubeT is Hypercube with an explicit terminal count: nTerm
// vertices of even parity are chosen pseudo-randomly. Lower terminal
// counts interpolate the difficulty between hypercube dimensions.
func HypercubeT(d, nTerm int, perturbed bool, seed int64) *steiner.SPG {
	s := Hypercube(d, perturbed, seed)
	s.Name = hcName(d, perturbed) + "t" + itoa(nTerm)
	var evens []int
	for v := 0; v < s.G.NumVertices(); v++ {
		s.Terminal[v] = false
		if parity(v) == 0 {
			evens = append(evens, v)
		}
	}
	rng := rand.New(rand.NewSource(seed * 7919))
	perm := rng.Perm(len(evens))
	if nTerm > len(evens) {
		nTerm = len(evens)
	}
	for i := 0; i < nTerm; i++ {
		s.Terminal[evens[perm[i]]] = true
	}
	return s
}

// HypercubeSpread is HypercubeT with integer costs drawn uniformly from
// [lo, hi]. The cost spread is the difficulty dial of the hc family:
// unit costs (the u-variants) sit deep in the intractable regime, wide
// spreads collapse to the root, and ratios hi/lo ≈ 1.6–1.7 produce the
// moderate search trees the scaling experiments need.
func HypercubeSpread(d, nTerm, lo, hi int, seed int64) *steiner.SPG {
	s := HypercubeT(d, nTerm, true, seed)
	s.Name = hcName(d, true) + "s" + itoa(hi)
	rng := rand.New(rand.NewSource(seed * 31))
	for e := 0; e < s.G.NumEdges(); e++ {
		s.G.SetCost(e, float64(lo+rng.Intn(hi-lo+1)))
	}
	return s
}

func parity(v int) int {
	p := 0
	for v > 0 {
		p ^= v & 1
		v >>= 1
	}
	return p
}

func hcName(d int, perturbed bool) string {
	suffix := "u"
	if perturbed {
		suffix = "p"
	}
	return "hc" + itoa(d) + suffix
}

// CodeCover builds the cc-family instance: the Hamming graph H(d,a)
// whose vertices are the a^d words over an alphabet of size a, with
// edges between words differing in exactly one position. nTerm terminals
// are chosen pseudo-randomly (seeded), emulating the covering-code
// structure of the originals.
func CodeCover(d, a, nTerm int, perturbed bool, seed int64) *steiner.SPG {
	n := 1
	for i := 0; i < d; i++ {
		n *= a
	}
	s := steiner.NewSPG(n)
	s.Name = "cc" + itoa(d) + "-" + itoa(a) + variant(perturbed)
	rng := rand.New(rand.NewSource(seed))
	// Edges: words differing in one coordinate.
	pow := make([]int, d+1)
	pow[0] = 1
	for i := 1; i <= d; i++ {
		pow[i] = pow[i-1] * a
	}
	for v := 0; v < n; v++ {
		for pos := 0; pos < d; pos++ {
			digit := (v / pow[pos]) % a
			for nd := digit + 1; nd < a; nd++ {
				w := v + (nd-digit)*pow[pos]
				c := 1.0
				if perturbed {
					c = float64(100 + rng.Intn(11))
				}
				s.G.AddEdge(v, w, c)
			}
		}
	}
	if nTerm < 2 {
		nTerm = 2
	}
	perm := rng.Perm(n)
	for i := 0; i < nTerm && i < n; i++ {
		s.Terminal[perm[i]] = true
	}
	return s
}

// Bipartite builds the bip-family instance: nTerm terminals on one side,
// nSteiner potential Steiner vertices on the other; each terminal links
// to deg random Steiner vertices and the Steiner side carries a sparse
// random backbone. The covering structure (terminals only reachable
// through Steiner vertices) is what makes bip instances hard.
func Bipartite(nTerm, nSteiner, deg int, perturbed bool, seed int64) *steiner.SPG {
	n := nTerm + nSteiner
	s := steiner.NewSPG(n)
	s.Name = "bip" + itoa(nTerm) + variant(perturbed)
	rng := rand.New(rand.NewSource(seed))
	cost := func() float64 {
		if perturbed {
			return float64(100 + rng.Intn(11))
		}
		return 1
	}
	// Terminals 0..nTerm-1, Steiner vertices nTerm..n-1.
	for t := 0; t < nTerm; t++ {
		s.Terminal[t] = true
		seen := map[int]bool{}
		for k := 0; k < deg; k++ {
			v := nTerm + rng.Intn(nSteiner)
			if seen[v] {
				continue
			}
			seen[v] = true
			s.G.AddEdge(t, v, cost())
		}
	}
	// Steiner backbone: a random connected sparse graph.
	for v := nTerm + 1; v < n; v++ {
		w := nTerm + rng.Intn(v-nTerm)
		s.G.AddEdge(v, w, cost())
	}
	extra := 2 * nSteiner
	for k := 0; k < extra; k++ {
		u := nTerm + rng.Intn(nSteiner)
		v := nTerm + rng.Intn(nSteiner)
		if u != v {
			s.G.AddEdge(u, v, cost())
		}
	}
	return s
}

func variant(perturbed bool) string {
	if perturbed {
		return "p"
	}
	return "u"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// Named returns the scaled-down analogue of a paper instance. The names
// follow the paper's tables; dimensions are reduced so the instances are
// attackable on one machine while preserving the family structure (see
// DESIGN.md, substitution 3).
func Named(name string) *steiner.SPG {
	switch name {
	case "cc3-4p":
		return CodeCover(3, 4, 8, true, 341)
	case "cc3-5u":
		return CodeCover(3, 5, 13, false, 352)
	case "cc5-3p":
		return CodeCover(4, 3, 9, true, 533)
	case "hc6p":
		return Hypercube(6, true, 761)
	case "hc6u":
		return Hypercube(6, false, 762)
	case "hc7p":
		return Hypercube(6, true, 77) // scaled: d=6 stands in for hc7
	case "hc7u":
		return Hypercube(6, false, 78)
	case "hc10p":
		return Hypercube(7, true, 710) // scaled: d=7 stands in for hc10
	case "bip52u":
		return Bipartite(16, 80, 3, false, 52)
	case "hc9p":
		return Hypercube(7, true, 97)
	default:
		return nil
	}
}

// Spec selects a generated instance by stpgen's parameters: the family
// (hc, cc or bip), the dimension D (hc, cc), the alphabet size A (cc),
// the terminal count (cc, bip, and hc when set), the Steiner-side size
// and terminal degree (bip), the cost variant and the seed. Unset
// (zero) A, Terminals, Steiner and Deg take the family defaults: an
// alphabet of 3, 8 terminals for cc and 16 for bip, 60 Steiner vertices
// and degree 3; an hc instance without Terminals uses the even-parity
// terminal set.
type Spec struct {
	Family    string
	D         int
	A         int
	Terminals int
	Steiner   int
	Deg       int
	Perturbed bool
	Seed      int64
}

// Generate builds the instance sp selects, or returns nil for an
// unknown family.
func Generate(sp Spec) *steiner.SPG {
	switch sp.Family {
	case "hc":
		if sp.Terminals > 0 {
			return HypercubeT(sp.D, sp.Terminals, sp.Perturbed, sp.Seed)
		}
		return Hypercube(sp.D, sp.Perturbed, sp.Seed)
	case "cc":
		return CodeCover(sp.D, orDefault(sp.A, 3), orDefault(sp.Terminals, 8), sp.Perturbed, sp.Seed)
	case "bip":
		return Bipartite(orDefault(sp.Terminals, 16), orDefault(sp.Steiner, 60), orDefault(sp.Deg, 3), sp.Perturbed, sp.Seed)
	}
	return nil
}

// orDefault is v when set (positive), else def.
func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
