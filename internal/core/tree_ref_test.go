package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
	"subgraph/internal/graph"
	"subgraph/internal/obs"
)

// refTreeNode is the slow-path oracle for treeNode: the straightforward
// color-coding DP with a []bool mask per node, a map of the latest mask
// per sender, and a fresh Writer per broadcast. treeNode must produce the
// same decisions, messages and Stats on every input.
type refTreeNode struct {
	plan     *treePlan
	children [][]int // children[x] under root 0
	order    []int   // post-order (children before parents)
	color    int
	can      []bool
	nbr      map[congest.NodeID][]bool
}

func (tn *refTreeNode) Init(env *congest.Env) {}

func (tn *refTreeNode) mask() bitio.BitString {
	w := bitio.NewWriter()
	for _, b := range tn.can {
		if b {
			w.WriteBit(1)
		} else {
			w.WriteBit(0)
		}
	}
	return w.BitString()
}

func (tn *refTreeNode) Round(env *congest.Env, inbox []congest.Message) {
	p := tn.plan
	r := env.Round() - 1
	rep, offset := r/p.perRep, r%p.perRep
	if rep >= p.cfg.Reps {
		env.Halt()
		return
	}
	if offset == 0 {
		tn.color = colorOf(env, p.cfg.Coloring, rep, p.t)
		tn.can = make([]bool, p.t)
		tn.nbr = make(map[congest.NodeID][]bool)
		for x := 0; x < p.t; x++ {
			if len(tn.children[x]) == 0 && tn.color == x {
				tn.can[x] = true
			}
		}
		env.Broadcast(tn.mask())
		return
	}
	for _, m := range inbox {
		if m.Payload.Len() != p.t {
			continue
		}
		bits := make([]bool, p.t)
		for i := 0; i < p.t; i++ {
			bits[i] = m.Payload.Bit(i) == 1
		}
		tn.nbr[m.From] = bits
	}
	for _, x := range tn.order {
		if tn.can[x] || tn.color != x {
			continue
		}
		ok := true
		for _, y := range tn.children[x] {
			found := false
			for _, bits := range tn.nbr {
				if bits[y] {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			tn.can[x] = true
		}
	}
	if tn.can[0] {
		env.Reject()
	}
	if offset < p.perRep-1 {
		env.Broadcast(tn.mask())
	}
	if offset == p.perRep-1 && rep == p.cfg.Reps-1 {
		env.Halt()
	}
}

// refRootedTree roots the pattern at label 0 by BFS and returns each
// label's children and a post-order (reverse BFS order), the order the
// reference DP scans labels in. It reads only the pattern graph, so the
// reference does not share the production plan's child masks.
func refRootedTree(tree *graph.Graph) (children [][]int, order []int) {
	t := tree.N()
	children = make([][]int, t)
	seen := make([]bool, t)
	seen[0] = true
	bfs := []int{0}
	for i := 0; i < len(bfs); i++ {
		x := bfs[i]
		for _, y := range tree.Neighbors(x) {
			if !seen[y] {
				seen[y] = true
				children[x] = append(children[x], int(y))
				bfs = append(bfs, int(y))
			}
		}
	}
	order = make([]int, t)
	for i, x := range bfs {
		order[t-1-i] = x
	}
	return children, order
}

// refDetectTree is DetectTree running refTreeNode.
func refDetectTree(nw *congest.Network, cfg TreeConfig) (*TreeReport, error) {
	if cfg.Reps <= 0 {
		cfg.Reps = 1
	}
	plan := newTreePlan(cfg)
	children, order := refRootedTree(cfg.Tree)
	factory := func() congest.Node { return &refTreeNode{plan: plan, children: children, order: order} }
	out, err := runRobust(nw, factory, congest.Config{B: plan.t, MaxRounds: plan.perRep*cfg.Reps + 1},
		cfg.RunOptions, nil)
	if out == nil {
		return nil, err
	}
	return &TreeReport{Outcome: *out, RoundsPerRep: plan.perRep}, err
}

// TestTreeNodeMatchesReference runs the production tree node program and
// the reference program on seeded random hosts, patterns (t ≤ 10, plus
// patterns with t > 64 whose masks span two words), fault plans,
// identifier assignments and both engines, and requires identical
// TreeReports: the same decision and byte-identical Stats.
func TestTreeNodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := 100
	for c := 0; c < cases; c++ {
		var tree, host *graph.Graph
		var coloring func(congest.NodeID, int) int
		if c%25 == 24 {
			// A large pattern planted on the host's first vertices, colored
			// by its labels there so the DP has something to find.
			tt := 65 + rng.Intn(6)
			tree = graph.RandomTree(tt, rng)
			b := graph.NewBuilder(tt + 10)
			for _, e := range tree.Edges() {
				b.AddEdge(e[0], e[1])
			}
			for _, e := range graph.GNM(tt+10, tt/2, rng).Edges() {
				b.AddEdgeOK(e[0], e[1])
			}
			host = b.Build()
			salt := rng.Int63()
			coloring = func(id congest.NodeID, rep int) int {
				if rep == 0 && id < congest.NodeID(tt) {
					return int(id)
				}
				return int(uint64(int64(id)*7919+int64(rep)*104729+salt) % uint64(tt))
			}
		} else {
			tree = graph.RandomTree(1+rng.Intn(10), rng)
			n := 2 + rng.Intn(28)
			host = graph.GNP(n, 1.5/float64(n)+rng.Float64()*0.3, rng)
		}
		var nw *congest.Network
		ids := "unique"
		switch rng.Intn(3) {
		case 0:
			nw = congest.NewNetwork(host)
		case 1:
			ids = "scrambled"
			nw = scrambledNetwork(host, rng)
		default:
			ids = "duplicate"
			mod := 1 + rng.Intn(host.N())
			dup := make([]congest.NodeID, host.N())
			for v := range dup {
				dup[v] = congest.NodeID(v % mod)
			}
			nw = congest.NewNetworkWithDuplicateIDs(host, dup)
		}
		var faults *congest.FaultPlan
		switch rng.Intn(3) {
		case 1:
			faults = &congest.FaultPlan{Seed: rng.Int63(), CorruptRate: rng.Float64() * 0.4, CorruptFlips: 1 + rng.Intn(3)}
		case 2:
			faults = &congest.FaultPlan{Seed: rng.Int63(), DropRate: rng.Float64() * 0.3, CorruptRate: rng.Float64() * 0.2}
		}
		cfg := TreeConfig{Tree: tree, Reps: 1 + rng.Intn(8), Coloring: coloring,
			RunOptions: RunOptions{Seed: rng.Int63(), Parallel: rng.Intn(2) == 1, Faults: faults},
		}
		name := fmt.Sprintf("case %d: t=%d n=%d ids=%s reps=%d parallel=%v faults=%+v",
			c, tree.N(), host.N(), ids, cfg.Reps, cfg.Parallel, faults)
		// The JSONL trace records every message payload, so equal traces
		// mean equal transcripts, not just equal bit counts.
		var gotTrace, wantTrace bytes.Buffer
		gotTr := obs.NewJSONLTracerOptions(&gotTrace, obs.JSONLOptions{OmitTimings: true})
		wantTr := obs.NewJSONLTracerOptions(&wantTrace, obs.JSONLOptions{OmitTimings: true})
		cfg.Tracer = gotTr
		got, gotErr := DetectTree(nw, cfg)
		cfg.Tracer = wantTr
		want, wantErr := refDetectTree(nw, cfg)
		if err := errors.Join(gotTr.Close(), wantTr.Close()); err != nil {
			t.Fatal(err)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: report differs from reference: detected %v vs %v; %s",
				name, got.Detected, want.Detected, congest.DiffStats(got.Stats, want.Stats))
		}
		if !bytes.Equal(gotTrace.Bytes(), wantTrace.Bytes()) {
			t.Fatalf("%s: trace differs from reference", name)
		}
	}
}
