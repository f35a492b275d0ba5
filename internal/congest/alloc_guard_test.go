package congest

import (
	"testing"

	"subgraph/internal/bitio"
)

// Regression guard for the PR 3 zero-allocation round loop: in steady
// state (nil tracer, no faults, no transcript) a round must not allocate.
//
// testing.AllocsPerRun cannot observe a single round directly — setup
// (envs, delivery index, arena) legitimately allocates, and the arena's
// buffers grow during the first rounds until they fit the traffic. So the
// guard compares whole runs that differ ONLY in round count: every
// allocation in a run is either setup or warm-up, both independent of how
// long the run continues, so a run of 400 rounds must allocate exactly as
// much as a run of 50. Any per-round allocation shows up multiplied by
// 350 and fails loudly.
//
// The Go runtime adds a few allocations of its own now and then, and
// they only ever add. The parallel engine's workers exit asynchronously,
// so the second run in a process starts its workers while the first
// run's are still exiting, and the runtime allocates a second set of
// goroutine descriptors (runtime.malg) once. And a GC cycle during a run
// empties per-P runtime caches that the channel and WaitGroup parks draw
// from, so that run and the next allocate a few objects more. Whichever
// of the two runs is measured first would absorb them, so the guard
// takes the least of three measurements, as core's minAllocs does.
func steadyRunAllocs(t *testing.T, nw *Network, rounds int, parallel bool) float64 {
	t.Helper()
	payload := bitio.Uint(0x2a, 8)
	factory := func() Node {
		return &FuncNode{OnRound: func(env *Env, inbox []Message) {
			if env.Round() >= rounds {
				env.Halt()
			}
			env.Broadcast(payload)
		}}
	}
	// MaxRounds is fixed across calls so setup-time capacities
	// (PerRoundBits) cannot differ between the short and long run.
	cfg := Config{B: 8, MaxRounds: 512, Parallel: parallel, Workers: 4}
	run := func() {
		res, err := Run(nw, factory, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Rounds != rounds {
			t.Fatalf("rounds = %d, want %d", res.Stats.Rounds, rounds)
		}
	}
	least := testing.AllocsPerRun(5, run)
	for i := 0; i < 2; i++ {
		least = min(least, testing.AllocsPerRun(5, run))
	}
	return least
}

func TestSteadyStateRoundZeroAllocsSequential(t *testing.T) {
	g := denseComposite(64, 12)
	nw := NewNetwork(g)
	short := steadyRunAllocs(t, nw, 50, false)
	long := steadyRunAllocs(t, nw, 400, false)
	if long != short {
		t.Fatalf("sequential engine allocates in steady state: %.1f allocs over 350 extra rounds (%.4f/round)",
			long-short, (long-short)/350)
	}
}

// The parallel engine shares the guard. Its per-round work — channel
// sends, WaitGroup barrier, worker steps — is allocation-free too; only
// goroutine spawn (setup) allocates.
func TestSteadyStateRoundZeroAllocsParallel(t *testing.T) {
	g := denseComposite(64, 12)
	nw := NewNetwork(g)
	short := steadyRunAllocs(t, nw, 50, true)
	long := steadyRunAllocs(t, nw, 400, true)
	if long != short {
		t.Fatalf("parallel engine allocates in steady state: %.1f allocs over 350 extra rounds (%.4f/round)",
			long-short, (long-short)/350)
	}
}
