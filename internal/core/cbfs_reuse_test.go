package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
	"subgraph/internal/obs"
)

// The color-BFS relay keeps one cbfsState per node for the whole run and
// resets it at each repetition. The reference below gives every
// repetition a newly allocated state instead; the two must produce
// identical traces and Stats, including when the Phase I queue overloads
// and a repetition ends with tokens still queued (a small Turán constant
// forces that).

// freshLinearNode replaces the relay state at each repetition start.
type freshLinearNode struct{ linearCycleNode }

func (n *freshLinearNode) Round(env *congest.Env, inbox []congest.Message) {
	if (env.Round()-1)%n.perRep == 0 {
		n.state = cbfsState{codec: n.state.codec, cycleLen: n.state.cycleLen}
	}
	n.linearCycleNode.Round(env, inbox)
}

// freshEvenNode replaces the Phase I relay state at each repetition start.
type freshEvenNode struct{ evenCycleNode }

func (n *freshEvenNode) Round(env *congest.Env, inbox []congest.Message) {
	p := n.plan
	if r := env.Round(); r <= p.p1End && (r-1)%p.r1 == 0 {
		n.p1 = cbfsState{codec: p.codec, cycleLen: p.cycle}
	}
	n.evenCycleNode.Round(env, inbox)
}

// tracedOutcome is a run's decision, Stats, error and timing-free trace.
type tracedOutcome struct {
	detected bool
	stats    congest.Stats
	err      error
	trace    []byte
}

func traced(t *testing.T, f func(tr obs.Tracer) (bool, congest.Stats, error)) tracedOutcome {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewJSONLTracerOptions(&buf, obs.JSONLOptions{OmitTimings: true})
	var o tracedOutcome
	o.detected, o.stats, o.err = f(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	o.trace = buf.Bytes()
	return o
}

func TestCBFSStateReuseMatchesFreshState(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for c := 0; c < 60; c++ {
		n := 8 + rng.Intn(30)
		g := graph.GNP(n, 0.1+rng.Float64()*0.4, rng)
		nw := congest.NewNetwork(g)
		if rng.Intn(3) == 0 {
			mod := 1 + rng.Intn(n)
			dup := make([]congest.NodeID, n)
			for v := range dup {
				dup[v] = congest.NodeID(v % mod)
			}
			nw = congest.NewNetworkWithDuplicateIDs(g, dup)
		}
		var faults *congest.FaultPlan
		if rng.Intn(2) == 0 {
			faults = &congest.FaultPlan{Seed: rng.Int63(), DropRate: rng.Float64() * 0.2, CorruptRate: rng.Float64() * 0.2}
		}
		seed, parallel := rng.Int63(), rng.Intn(2) == 1
		name := fmt.Sprintf("case %d: n=%d m=%d parallel=%v faults=%+v", c, n, g.M(), parallel, faults)

		var got, want tracedOutcome
		if c%2 == 0 {
			cfg := LinearCycleConfig{CycleLen: 3 + rng.Intn(4), Reps: 1 + rng.Intn(4),
				RunOptions: RunOptions{Seed: seed, Parallel: parallel, Faults: faults}}
			name += fmt.Sprintf(" linear L=%d reps=%d", cfg.CycleLen, cfg.Reps)
			got = traced(t, func(tr obs.Tracer) (bool, congest.Stats, error) {
				cfg.Tracer = tr
				rep, err := DetectCycleLinear(nw, cfg)
				return rep.Detected, rep.Stats, err
			})
			want = traced(t, func(tr obs.Tracer) (bool, congest.Stats, error) {
				codec := cbfsCodec{idBits: nw.IDBits(), hopBits: 8}
				perRep := nw.N() + cfg.CycleLen + 1
				factory := func() congest.Node {
					return &freshLinearNode{linearCycleNode{cfg: cfg, perRep: perRep,
						state: cbfsState{codec: codec, cycleLen: cfg.CycleLen}}}
				}
				run := RunOptions{Seed: seed, Parallel: parallel, Faults: faults, Tracer: tr}
				out, err := runRobust(nw, factory, congest.Config{B: codec.idBits + codec.hopBits,
					MaxRounds: perRep*cfg.Reps + 1}, run, nil)
				return out.Detected, out.Stats, err
			})
		} else {
			cfg := EvenCycleConfig{K: 2 + rng.Intn(2), TuranConstant: []float64{0.01, 0.1, 2}[rng.Intn(3)],
				PhaseIReps: 1 + rng.Intn(3), PhaseIIReps: 1,
				RunOptions: RunOptions{Seed: seed, Parallel: parallel, Faults: faults}}
			name += fmt.Sprintf(" even k=%d c=%v reps=%d", cfg.K, cfg.TuranConstant, cfg.PhaseIReps)
			got = traced(t, func(tr obs.Tracer) (bool, congest.Stats, error) {
				cfg.Tracer = tr
				rep, err := DetectEvenCycle(nw, cfg)
				return rep.Detected, rep.Stats, err
			})
			want = traced(t, func(tr obs.Tracer) (bool, congest.Stats, error) {
				plan := newEvenCyclePlan(nw, cfg)
				factory := func() congest.Node { return &freshEvenNode{evenCycleNode{plan: plan}} }
				out, err := runRobust(nw, factory, congest.Config{B: plan.bandwidth(), MaxRounds: plan.total},
					RunOptions{Seed: seed, Parallel: parallel, Faults: faults, Tracer: tr}, nil)
				return out.Detected, out.Stats, err
			})
		}
		if got.err != nil || want.err != nil {
			t.Fatalf("%s: error %v, fresh-state reference %v", name, got.err, want.err)
		}
		if got.detected != want.detected {
			t.Fatalf("%s: detected %v, fresh-state reference %v", name, got.detected, want.detected)
		}
		if d := congest.DiffStats(got.stats, want.stats); d != "" {
			t.Fatalf("%s: Stats differ from the fresh-state reference: %s", name, d)
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Fatalf("%s: trace differs from the fresh-state reference", name)
		}
	}
}
