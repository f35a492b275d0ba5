package core

import (
	"math"
	"math/rand"
	"testing"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// binomCDF returns P(X ≤ k) for X ~ Binomial(n, p), summed in log space.
func binomCDF(k, n int, p float64) float64 {
	lg := func(x int) float64 { v, _ := math.Lgamma(float64(x) + 1); return v }
	sum := 0.0
	for i := 0; i <= k; i++ {
		sum += math.Exp(lg(n) - lg(i) - lg(n-i) + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return sum
}

// TestTreeDetectionRateStatistical checks the one-sided error of the tree
// detector statistically. With the host equal to the pattern T, the only
// copies are T's automorphisms, and the DP finds one in a repetition iff
// color(φ(x)) = x for some automorphism φ: probability exactly
// |Aut(T)|/t^t per repetition (not t!/t^t, which would only ask for
// distinct colors). So reps repetitions detect with probability
// 1−(1−|Aut(T)|/t^t)^reps. Over many seeded runs the observed rate must
// not fall significantly below that bound (one-sided binomial test at
// level 1e-3).
func TestTreeDetectionRateStatistical(t *testing.T) {
	const reps, trials, alpha = 16, 4000, 1e-3
	for _, c := range []struct {
		name string
		tree *graph.Graph
		aut  int
	}{
		{"path:4", graph.Path(4), 2},
		{"star:3", graph.Star(3), 6},
	} {
		nw := congest.NewNetwork(c.tree)
		tt := c.tree.N()
		perRep := float64(c.aut) / math.Pow(float64(tt), float64(tt))
		bound := 1 - math.Pow(1-perRep, reps)
		hits := 0
		for s := 0; s < trials; s++ {
			rep, err := DetectTree(nw, TreeConfig{Tree: c.tree, Reps: reps, RunOptions: RunOptions{Seed: int64(s)}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Detected {
				hits++
			}
		}
		pval := binomCDF(hits, trials, bound)
		t.Logf("%s: %d/%d detected (rate %.4f), bound %.4f, P(X ≤ hits) = %.3g",
			c.name, hits, trials, float64(hits)/trials, bound, pval)
		if pval < alpha {
			t.Errorf("%s: detection rate %.4f significantly below 1−(1−|Aut|/t^t)^%d = %.4f (p = %.3g)",
				c.name, float64(hits)/trials, reps, bound, pval)
		}
	}
}

// TestTreeNoFalsePositives requires zero detections on hosts free of the
// pattern: fixed T-free families (stars contain no P_4, cycles no claw)
// and seeded sparse random graphs filtered by the exact VF2 check.
func TestTreeNoFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, c := range []struct {
		name  string
		tree  *graph.Graph
		hosts []*graph.Graph
	}{
		{"path:4", graph.Path(4), []*graph.Graph{graph.Star(6), graph.Star(12)}},
		{"star:3", graph.Star(3), []*graph.Graph{graph.Cycle(8), graph.Path(12)}},
	} {
		hosts := c.hosts
		for len(hosts) < 16 {
			g := graph.GNP(12, 0.12, rng)
			if !graph.ContainsSubgraph(c.tree, g) {
				hosts = append(hosts, g)
			}
		}
		for i, g := range hosts {
			nw := congest.NewNetwork(g)
			for s := int64(0); s < 10; s++ {
				rep, err := DetectTree(nw, TreeConfig{Tree: c.tree, Reps: 64,
					RunOptions: RunOptions{Seed: s, Parallel: s%2 == 1}})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Detected {
					t.Fatalf("%s: false positive on %s-free host %d (n=%d m=%d), seed %d",
						c.name, c.name, i, g.N(), g.M(), s)
				}
			}
		}
	}
}
