package subgraph

import (
	"strings"
	"testing"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// Flag bits of a FuzzDetect input.
const (
	fuzzParallel  = 1 << 0 // run the goroutine engine first
	fuzzResilient = 1 << 1 // Options.Resilient
	fuzzLocal     = 1 << 2 // DetectLocal instead of Detect
	fuzzRepsShift = 3      // bits 3-4: Reps-1
)

// exactArms are the dispatch arms whose answer is deterministic and exact.
var exactArms = map[string]bool{
	"triangle-neighbor-exchange": true,
	"triangle-degree-split":      true,
	"clique-linear":              true,
	"edge-collection":            true,
	"local-ball-collection":      true,
}

// FuzzDetect drives the facade with an untrusted host edge list (at most
// 16 vertices) and pattern. The pattern is a ParsePattern spec or, to
// reach the edge-collection arm that no spec names, a connected edge list
// on at most 5 vertices. Detect (or DetectLocal) must not panic; its only
// errors are the refusals of Resilient; the exact arms must agree with
// ContainsSubgraph and the randomized arms may only err on the "not
// detected" side; and both engines must report the same decision and
// Stats. Reps stays in 1..4 so tree runs stay short.
func FuzzDetect(f *testing.F) {
	f.Add("n 0\n", "cycle:4", int64(1), uint8(0)) // divided by n = 0
	f.Add("0 1\n1 2\n2 3\n", "path:3", int64(2), uint8(3<<fuzzRepsShift))
	f.Add("0 1\n1 2\n2 0\n2 3\n", "triangle", int64(3), uint8(fuzzParallel))
	f.Add("0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n1 2\n", "cycle:3", int64(4), uint8(0))
	f.Add("0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n1 2\n", "clique:3", int64(4), uint8(fuzzResilient))
	f.Add("0 1\n1 2\n2 3\n3 0\n", "cycle:4", int64(5), uint8(fuzzResilient|1<<fuzzRepsShift))
	f.Add("0 1\n1 2\n2 3\n3 4\n4 0\n", "cycle:5", int64(6), uint8(3<<fuzzRepsShift))
	f.Add("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n", "clique:4", int64(7), uint8(0))
	f.Add("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", "0 1\n0 2\n0 3\n1 2\n1 3\n", int64(8), uint8(0))
	f.Add("0 1\n1 2\n2 3\n3 4\n4 0\n", "cycle:5", int64(9), uint8(fuzzLocal))
	f.Add("0 1\n1 2\n", "star:2", int64(10), uint8(fuzzLocal|fuzzResilient))
	hostLimits := graph.Limits{MaxVertices: 16, MaxEdges: 120, MaxLineBytes: 64}
	patternLimits := graph.Limits{MaxVertices: 5, MaxEdges: 10, MaxLineBytes: 64}
	f.Fuzz(func(t *testing.T, edges, pattern string, seed int64, flags uint8) {
		g, err := graph.ReadEdgeListLimits(strings.NewReader(edges), hostLimits)
		if err != nil {
			return
		}
		h, err := ParsePattern(pattern)
		if err != nil {
			// The collection detectors see edges only, so an edge-list
			// pattern must be connected and have an edge.
			h, err = graph.ReadEdgeListLimits(strings.NewReader(pattern), patternLimits)
			if err != nil || h.M() == 0 || !h.Connected() {
				return
			}
		}
		if h.N() > 5 {
			return
		}
		opts := Options{
			Reps:      1 + int(flags>>fuzzRepsShift)%4,
			Seed:      seed,
			Parallel:  flags&fuzzParallel != 0,
			Resilient: flags&fuzzResilient != 0,
		}
		detect := Detect
		if flags&fuzzLocal != 0 {
			detect = DetectLocal
		}
		nw := NewNetwork(g)
		rep, err := detect(nw, h, opts)
		opts.Parallel = !opts.Parallel
		other, otherErr := detect(nw, h, opts)
		if err != nil {
			if !strings.Contains(err.Error(), "resilient mode is not supported") || !opts.Resilient {
				t.Fatalf("unexpected error: %v", err)
			}
			if otherErr == nil || otherErr.Error() != err.Error() {
				t.Fatalf("engines disagree on the error: %v vs %v", err, otherErr)
			}
			return
		}
		if otherErr != nil {
			t.Fatalf("one engine failed: %v", otherErr)
		}
		if other.Detected != rep.Detected || other.Algorithm != rep.Algorithm {
			t.Fatalf("engines disagree: %s detected=%v vs %s detected=%v",
				rep.Algorithm, rep.Detected, other.Algorithm, other.Detected)
		}
		if d := congest.DiffStats(rep.Stats, other.Stats); d != "" {
			t.Fatalf("%s: engines report different Stats: %s", rep.Algorithm, d)
		}
		truth := ContainsSubgraph(h, g)
		if exactArms[rep.Algorithm] && rep.Detected != truth {
			t.Fatalf("exact arm %s: detected=%v, ground truth %v", rep.Algorithm, rep.Detected, truth)
		}
		if rep.Detected && !truth {
			t.Fatalf("%s: false positive", rep.Algorithm)
		}
	})
}
