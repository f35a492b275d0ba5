package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

var update = flag.Bool("update", false, "rewrite the golden detector file")

// goldenLine is one case of the detector golden matrix: the decision and
// the full simulator Stats (per-round and per-node bits included).
type goldenLine struct {
	Case     string        `json:"case"`
	Detected bool          `json:"detected"`
	Err      string        `json:"err,omitempty"`
	Stats    congest.Stats `json:"stats"`
}

// goldenDetector is one detector instance of the matrix; run executes it
// on a network with the detector's seed and the matrix's engine and
// fault plan.
type goldenDetector struct {
	name string
	g    *graph.Graph
	seed int64
	run  func(nw *congest.Network, ro RunOptions) (*Outcome, error)
}

func goldenTree(name string, g, tree *graph.Graph, reps int, coloring func(congest.NodeID, int) int) goldenDetector {
	return goldenDetector{name: "tree/" + name, g: g, seed: 5,
		run: func(nw *congest.Network, ro RunOptions) (*Outcome, error) {
			return OutcomeOf(DetectTree(nw, TreeConfig{Tree: tree, Reps: reps, Coloring: coloring, RunOptions: ro}))
		}}
}

// goldenDetectors lists the matrix's detectors: five tree patterns (the
// last has 70 vertices, so its DP mask spans two 64-bit words), the
// linear cycle detector for L=3..6, the even-cycle detector for k=2,3
// and the exact detectors of goldenExact.
func goldenDetectors() []goldenDetector {
	var ds []goldenDetector
	for i, p := range []struct {
		name string
		tree *graph.Graph
	}{{"path:4", graph.Path(4)}, {"star:3", graph.Star(3)}, {"path:5", graph.Path(5)}, {"star:5", graph.Star(5)}} {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		ds = append(ds, goldenTree(p.name, graph.GNP(24, 0.15, rng), p.tree, 16, nil))
	}
	// A 70-vertex random tree planted on host vertices 0..69 of a
	// 90-vertex sparse graph, with the planted copy colored by its labels.
	rng := rand.New(rand.NewSource(170))
	tree := graph.RandomTree(70, rng)
	host := graph.NewBuilder(90)
	for _, e := range tree.Edges() {
		host.AddEdge(e[0], e[1])
	}
	for _, e := range graph.GNM(90, 60, rng).Edges() {
		host.AddEdgeOK(e[0], e[1])
	}
	coloring := func(id congest.NodeID, rep int) int {
		if id < 70 {
			return int(id)
		}
		return int((id*31 + congest.NodeID(rep)*17) % 70)
	}
	ds = append(ds, goldenTree("random:70", host.Build(), tree, 2, coloring))

	for L := 3; L <= 6; L++ {
		rng := rand.New(rand.NewSource(int64(200 + L)))
		g, _ := graph.PlantCycle(graph.GNP(20, 0.1, rng), L, rng)
		L := L
		ds = append(ds, goldenDetector{name: fmt.Sprintf("cycle-linear/L=%d", L), g: g, seed: 7,
			run: func(nw *congest.Network, ro RunOptions) (*Outcome, error) {
				return OutcomeOf(DetectCycleLinear(nw, LinearCycleConfig{CycleLen: L, Reps: 2, RunOptions: ro}))
			}})
	}
	for k := 2; k <= 3; k++ {
		rng := rand.New(rand.NewSource(int64(300 + k)))
		g, _ := graph.PlantCycle(graph.GNP(30, 0.08, rng), 2*k, rng)
		k := k
		ds = append(ds, goldenDetector{name: fmt.Sprintf("even-cycle/k=%d", k), g: g, seed: 9,
			run: func(nw *congest.Network, ro RunOptions) (*Outcome, error) {
				cfg := EvenCycleConfig{K: k, PhaseIReps: 2, PhaseIIReps: 2, RunOptions: ro}
				return OutcomeOf(DetectEvenCycle(nw, cfg))
			}})
	}
	return append(ds, goldenExact()...)
}

// goldenExact lists the exact detectors of the matrix: triangle neighbor
// exchange (plain and under the resilient decorator), triangle degree
// split on a host with hubs (so both regimes stream), the K_4 detector,
// edge collection for K_{2,3} and the LOCAL detector for C_5.
func goldenExact() []goldenDetector {
	rng := rand.New(rand.NewSource(400))
	sparse, _ := graph.PlantCycle(graph.GNP(20, 0.12, rng), 3, rng)
	hubs := graph.NewBuilder(24)
	for _, e := range graph.GNP(24, 0.1, rng).Edges() {
		hubs.AddEdgeOK(e[0], e[1])
	}
	for v := 2; v < 16; v++ {
		hubs.AddEdgeOK(0, v)
		hubs.AddEdgeOK(1, v+8)
	}
	cliqueHost, _ := graph.PlantClique(graph.GNP(18, 0.15, rng), 4, rng)
	k23Host := graph.GNP(14, 0.3, rng)
	c5Host, _ := graph.PlantCycle(graph.GNP(16, 0.08, rng), 5, rng)
	return []goldenDetector{
		{name: "triangle", g: sparse, seed: 3,
			run: func(nw *congest.Network, ro RunOptions) (*Outcome, error) {
				return OutcomeOf(DetectTriangle(nw, TriangleConfig{RunOptions: ro}))
			}},
		{name: "triangle/resilient", g: sparse, seed: 3,
			run: func(nw *congest.Network, ro RunOptions) (*Outcome, error) {
				cfg := TriangleConfig{Resilient: &congest.ResilientConfig{}, RunOptions: ro}
				return OutcomeOf(DetectTriangle(nw, cfg))
			}},
		{name: "triangle-split", g: hubs.Build(), seed: 3,
			run: func(nw *congest.Network, ro RunOptions) (*Outcome, error) {
				return OutcomeOf(DetectTriangleSplit(nw, TriangleSplitConfig{RunOptions: ro}))
			}},
		{name: "clique/s=4", g: cliqueHost, seed: 3,
			run: func(nw *congest.Network, ro RunOptions) (*Outcome, error) {
				return OutcomeOf(DetectClique(nw, CliqueConfig{S: 4, RunOptions: ro}))
			}},
		{name: "collect/K2,3", g: k23Host, seed: 3,
			run: func(nw *congest.Network, ro RunOptions) (*Outcome, error) {
				cfg := CollectConfig{H: graph.CompleteBipartite(2, 3), RunOptions: ro}
				return OutcomeOf(DetectCollect(nw, cfg))
			}},
		{name: "local/C5", g: c5Host, seed: 3,
			run: func(nw *congest.Network, ro RunOptions) (*Outcome, error) {
				return OutcomeOf(DetectLocal(nw, LocalConfig{H: graph.Cycle(5), RunOptions: ro}))
			}},
	}
}

// goldenMatrix runs every detector under both engines, three fault
// plans and two identifier assignments, one JSON line per case.
func goldenMatrix(t *testing.T) []byte {
	t.Helper()
	faults := []struct {
		name string
		plan *congest.FaultPlan
	}{
		{"none", nil},
		{"corrupt", &congest.FaultPlan{Seed: 11, CorruptRate: 0.2, CorruptFlips: 2}},
		{"drop+corrupt", &congest.FaultPlan{Seed: 13, DropRate: 0.1, CorruptRate: 0.1}},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, d := range goldenDetectors() {
		// Duplicate identifiers v mod 7: many neighbors share an ID.
		dup := make([]congest.NodeID, d.g.N())
		for v := range dup {
			dup[v] = congest.NodeID(v % 7)
		}
		nets := []struct {
			name string
			nw   *congest.Network
		}{{"unique", congest.NewNetwork(d.g)}, {"dup", congest.NewNetworkWithDuplicateIDs(d.g, dup)}}
		for _, n := range nets {
			for _, parallel := range []bool{false, true} {
				engine := "seq"
				if parallel {
					engine = "par"
				}
				for _, f := range faults {
					line := goldenLine{Case: fmt.Sprintf("%s/%s/%s/%s", d.name, n.name, engine, f.name)}
					out, err := d.run(n.nw, RunOptions{Seed: d.seed, Parallel: parallel, Faults: f.plan})
					if out != nil {
						line.Detected, line.Stats = out.Detected, out.Stats
					}
					if err != nil {
						line.Err = err.Error()
					}
					if err := enc.Encode(line); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	return buf.Bytes()
}

// TestDetectorGolden pins Detected and the full Stats of every detector
// over a fixed matrix of patterns, engines, fault plans and identifier
// assignments. Stats are the
// reproduction's output, so an optimisation of a node program must leave
// this file byte-identical. Regenerate (only for an intended behaviour
// change) with
//
//	go test ./internal/core -run DetectorGolden -update
func TestDetectorGolden(t *testing.T) {
	got := goldenMatrix(t)
	golden := filepath.Join("testdata", "detector_golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("detector golden diverges at line %d:\n  got:  %.400s\n  want: %.400s\n(regenerate with -update only if the change is intended)",
				i+1, g, w)
		}
	}
	t.Fatal("detector golden differs (length mismatch)")
}
