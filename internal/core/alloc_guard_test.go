package core

import (
	"math/rand"
	"testing"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// Allocation guards for the detector node programs, in the style of the
// congest engine's steady-state guard: two runs that differ only in the
// repetition count must allocate the same, because setup and warm-up do
// not depend on how many repetitions follow. A per-round allocation shows
// up multiplied by the extra rounds (hundreds here) and fails loudly.
//
// testing.AllocsPerRun counts every allocation in the process, so a
// goroutine left over from an earlier test (or the runtime's goroutine
// and wait-queue caches behind the parallel engine) can add one now and
// then. Noise only ever adds, so minAllocs takes the least of a few
// measurements; the parallel engine keeps a slack of parallelAllocSlack
// on top.
const parallelAllocSlack = 2

func minAllocs(f func()) float64 {
	least := testing.AllocsPerRun(5, f)
	for i := 0; i < 2; i++ {
		least = min(least, testing.AllocsPerRun(5, f))
	}
	return least
}

func engineName(parallel bool) string {
	if parallel {
		return "parallel"
	}
	return "sequential"
}

func checkAllocDelta(t *testing.T, what string, parallel bool, extra, want float64) {
	t.Helper()
	slack := 0.0
	if parallel {
		slack = parallelAllocSlack
	}
	if extra < want-slack || extra > want+slack {
		t.Fatalf("%s on the %s engine: %v extra allocations, want %v",
			what, engineName(parallel), extra, want)
	}
}

// TestTreeDetectorAllocFree requires a tree color-coding run with 8R
// repetitions to allocate as much as one with R: no allocation per round.
func TestTreeDetectorAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nw := congest.NewNetwork(graph.GNP(150, 1.2/150, rng))
	const R = 4
	for _, tree := range []*graph.Graph{graph.Path(4), graph.Star(3)} {
		for _, parallel := range []bool{false, true} {
			allocs := func(reps int) float64 {
				return minAllocs(func() {
					cfg := TreeConfig{Tree: tree, Reps: reps, RunOptions: RunOptions{Seed: 3, Parallel: parallel}}
					if _, err := DetectTree(nw, cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
			short, long := allocs(R), allocs(8*R)
			checkAllocDelta(t, "DetectTree", parallel, long-short, 0)
		}
	}
}

// TestLinearCycleDetectorAllocs requires the linear cycle detector's only
// per-round allocation to be the one payload of each token it relays:
// across 8R versus R repetitions the extra allocations equal the extra
// token broadcasts. On C_12 every broadcast is two messages.
func TestLinearCycleDetectorAllocs(t *testing.T) {
	nw := congest.NewNetwork(graph.Cycle(12))
	// Colors along the cycle: every color-0 node originates a token that
	// is relayed three hops in every repetition.
	coloring := func(id congest.NodeID, rep int) int { return int(id) % 4 }
	const R = 2
	for _, parallel := range []bool{false, true} {
		allocs := func(reps int) (float64, int64) {
			var tokens int64
			a := minAllocs(func() {
				rep, err := DetectCycleLinear(nw, LinearCycleConfig{CycleLen: 4, Reps: reps, Coloring: coloring,
					RunOptions: RunOptions{Parallel: parallel}})
				if err != nil {
					t.Fatal(err)
				}
				tokens = rep.Stats.TotalMessages / 2
			})
			return a, tokens
		}
		short, shortTokens := allocs(R)
		long, longTokens := allocs(8 * R)
		if longTokens == shortTokens {
			t.Fatal("no tokens relayed: the guard measures nothing")
		}
		checkAllocDelta(t, "DetectCycleLinear", parallel, long-short, float64(longTokens-shortTokens))
	}
}
