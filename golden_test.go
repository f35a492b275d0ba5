package subgraph

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden facade file")

// detectGoldenLine is one case of the facade golden: everything Detect or
// DetectLocal reports, or the error text when it reports nothing.
type detectGoldenLine struct {
	Case          string `json:"case"`
	Algorithm     string `json:"algorithm"`
	Detected      bool   `json:"detected"`
	Rounds        int    `json:"rounds"`
	BandwidthBits int    `json:"bandwidth_bits"`
	Stats         Stats  `json:"stats"`
	Err           string `json:"err,omitempty"`
}

// detectGoldenCase is one facade call of the golden.
type detectGoldenCase struct {
	name  string
	g, h  *Graph
	opts  Options
	local bool // DetectLocal instead of Detect
}

// detectGoldenCases covers every dispatch arm of Detect and DetectLocal:
// explicit and default repetitions, the triangle rule both ways, the
// neighbor-exchange triangle forced by Resilient, the resilient cycle
// arms, fault plans, and the rejections.
func detectGoldenCases() []detectGoldenCase {
	rng := rand.New(rand.NewSource(500))
	treeHost := GNP(20, 0.15, rng)
	triSparse, _ := PlantCycle(GNP(20, 0.12, rng), 3, rng)
	hub := NewGraphBuilder(24)
	for v := 1; v < 24; v++ {
		hub.AddEdge(0, v)
	}
	for _, e := range GNM(23, 12, rng).Edges() {
		hub.AddEdgeOK(e[0]+1, e[1]+1)
	}
	triHub := hub.Build()
	evenHost, _ := PlantCycle(GNP(30, 0.08, rng), 4, rng)
	hexHost, _ := PlantCycle(GNP(30, 0.06, rng), 6, rng)
	oddHost, _ := PlantCycle(GNP(12, 0.15, rng), 5, rng)
	tinyOdd, _ := PlantCycle(Path(8), 5, rng)
	cliqueHost, _ := PlantClique(GNP(18, 0.15, rng), 4, rng)
	generalHost := GNP(14, 0.3, rng)
	k4e := NewGraphBuilder(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		k4e.AddEdge(e[0], e[1])
	}
	lossy := &FaultPlan{Seed: 13, DropRate: 0.1, CorruptRate: 0.1}
	drops := &FaultPlan{Seed: 17, DropRate: 0.2}
	return []detectGoldenCase{
		{name: "tree/path:4", g: treeHost, h: Path(4), opts: Options{Reps: 8, Seed: 1}},
		{name: "tree/path:3/default-reps", g: treeHost, h: Path(3), opts: Options{Seed: 2}},
		{name: "tree/star:3/lossy", g: treeHost, h: Star(3), opts: Options{Reps: 8, Seed: 3, Faults: lossy}},
		{name: "tree/resilient", g: treeHost, h: Path(4), opts: Options{Reps: 8, Resilient: true}},
		{name: "triangle/exchange", g: triSparse, h: Cycle(3), opts: Options{Seed: 4}},
		{name: "triangle/exchange/lossy", g: triSparse, h: Complete(3), opts: Options{Seed: 4, Faults: lossy}},
		{name: "triangle/split", g: triHub, h: Cycle(3), opts: Options{Seed: 5}},
		{name: "triangle/split/resilient", g: triHub, h: Cycle(3), opts: Options{Seed: 5, Resilient: true, Faults: drops}},
		{name: "even/cycle:4", g: evenHost, h: Cycle(4), opts: Options{Reps: 2, Seed: 6}},
		{name: "even/cycle:4/default-reps", g: evenHost, h: Cycle(4), opts: Options{Seed: 6}},
		{name: "even/cycle:4/drops", g: evenHost, h: Cycle(4), opts: Options{Reps: 2, Seed: 6, Faults: drops}},
		{name: "even/cycle:4/resilient", g: evenHost, h: Cycle(4), opts: Options{Seed: 6, Resilient: true, Faults: drops}},
		{name: "even/cycle:6", g: hexHost, h: Cycle(6), opts: Options{Reps: 2, Seed: 7}},
		{name: "odd/cycle:5", g: oddHost, h: Cycle(5), opts: Options{Reps: 3, Seed: 8}},
		{name: "odd/cycle:5/default-reps", g: tinyOdd, h: Cycle(5), opts: Options{Seed: 8}},
		{name: "odd/cycle:5/resilient", g: oddHost, h: Cycle(5), opts: Options{Reps: 2, Seed: 8, Resilient: true, Faults: drops}},
		{name: "clique/clique:4", g: cliqueHost, h: Complete(4), opts: Options{Seed: 9}},
		{name: "clique/clique:4/lossy", g: cliqueHost, h: Complete(4), opts: Options{Seed: 9, Faults: lossy}},
		{name: "clique/resilient", g: cliqueHost, h: Complete(4), opts: Options{Resilient: true}},
		{name: "general/K2,3", g: generalHost, h: CompleteBipartite(2, 3), opts: Options{Seed: 10}},
		{name: "general/K4-e", g: generalHost, h: k4e.Build(), opts: Options{Seed: 10, Faults: drops}},
		{name: "general/resilient", g: generalHost, h: CompleteBipartite(2, 3), opts: Options{Resilient: true}},
		{name: "empty-pattern", g: treeHost, h: nil},
		{name: "local/cycle:5", g: oddHost, h: Cycle(5), opts: Options{Seed: 11}, local: true},
		{name: "local/path:3/drops", g: treeHost, h: Path(3), opts: Options{Seed: 11, Faults: drops}, local: true},
		{name: "local/empty-pattern", g: treeHost, h: nil, local: true},
	}
}

// detectGolden runs every case under both engines, one JSON line each.
func detectGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, c := range detectGoldenCases() {
		nw := NewNetwork(c.g)
		for _, parallel := range []bool{false, true} {
			opts := c.opts
			opts.Parallel = parallel
			engine := "seq"
			if parallel {
				engine = "par"
			}
			detect := Detect
			if c.local {
				detect = DetectLocal
			}
			rep, err := detect(nw, c.h, opts)
			line := detectGoldenLine{Case: fmt.Sprintf("%s/%s", c.name, engine)}
			if rep != nil {
				line.Algorithm, line.Detected, line.Rounds = rep.Algorithm, rep.Detected, rep.Rounds
				line.BandwidthBits, line.Stats = rep.BandwidthBits, rep.Stats
			}
			if err != nil {
				line.Err = err.Error()
			}
			if err := enc.Encode(line); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

// TestDetectGolden pins what Detect and DetectLocal report on every arm —
// algorithm name, decision, rounds, bandwidth, the full Stats and the
// error text — so a change to the dispatcher or a detector config must
// leave this file byte-identical. Regenerate (only for an intended
// behaviour change) with
//
//	go test . -run DetectGolden -update
func TestDetectGolden(t *testing.T) {
	got := detectGolden(t)
	golden := filepath.Join("testdata", "detect_golden.jsonl")
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
			t.Fatalf("facade golden diverges at line %d:\n  got:  %.400s\n  want: %.400s\n(regenerate with -update only if the change is intended)",
				i+1, g, w)
		}
	}
}
