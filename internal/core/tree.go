package core

import (
	"fmt"
	"math/bits"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// Tree detection by color-coding dynamic programming (the constant-round
// regime of [12]): label the tree's vertices 0..t-1, color every network
// node with a uniform label, and compute bottom-up which network nodes can
// root a properly-colored embedding of each subtree. Because labels inside
// a subtree are distinct and each network node carries one color, a
// successful root embedding is automatically injective. The DP needs
// depth(T) ≤ t rounds of t-bit broadcasts, so the round complexity is
// O(|T|) — constant for fixed T — matching the paper's "trees are easy"
// citation.
//
// Success probability. The DP roots label x only at a node of color x, so
// it finds a copy φ: T → G only when color(φ(x)) = x for every label x —
// distinct colors alone (the t!/t^t of unlabeled color coding) do not
// suffice. A fixed copy therefore survives one repetition with
// probability |Aut(T)|/t^t (counting the copies with the same image), and
// Reps independent colorings detect it with probability at least
// 1−(1−|Aut(T)|/t^t)^Reps. Errors are one-sided: a rejection always
// exhibits a copy. tree_stat_test.go checks both statistically.

// TreeConfig configures the tree detector.
type TreeConfig struct {
	// Tree is the pattern; it must be a tree (connected, acyclic).
	Tree *graph.Graph
	// Reps is the number of independent colorings; default 1.
	Reps int
	// Coloring optionally injects a coloring (id, rep) → {0..t-1}.
	Coloring func(id congest.NodeID, rep int) int
	RunOptions
}

// TreeReport is the outcome of the tree detector.
type TreeReport struct {
	Outcome
	// RoundsPerRep is the per-repetition round budget depth(T) + 2.
	RoundsPerRep int
}

// treePlan precomputes the rooted structure of the pattern and the
// payloads every node broadcasts.
type treePlan struct {
	cfg   TreeConfig
	t     int // |V(T)|
	words int // ⌈t/64⌉: 64-bit words per mask
	// childMask[x*words:(x+1)*words] has bit y set iff y is a child of x
	// under root 0; it is all zero exactly for the leaves.
	childMask []uint64
	// payloads[x] is the t-bit mask with only bit x set (bit 0 first on
	// the wire); payloads[t] is the all-zero mask. They are the only
	// messages the program sends, shared by every node: neither the
	// engine nor the fault adversary mutates a payload it was handed.
	payloads []bitio.BitString
	perRep   int
}

func newTreePlan(cfg TreeConfig) *treePlan {
	tr := cfg.Tree
	t := tr.N()
	words := (t + 63) / 64
	childMask := make([]uint64, t*words)
	seen := make([]bool, t)
	seen[0] = true
	depth := make([]int, t)
	maxDepth := 0
	for queue := []int{0}; len(queue) > 0; queue = queue[1:] {
		x := queue[0]
		for _, y := range tr.Neighbors(x) {
			if !seen[y] {
				seen[y] = true
				depth[y] = depth[x] + 1
				maxDepth = max(maxDepth, depth[y])
				childMask[x*words+int(y)/64] |= 1 << (y % 64)
				queue = append(queue, int(y))
			}
		}
	}
	payloads := make([]bitio.BitString, t+1)
	for x := range payloads {
		w := bitio.NewWriter()
		for i := 0; i < t; i++ {
			if i == x {
				w.WriteBit(1)
			} else {
				w.WriteBit(0)
			}
		}
		payloads[x] = w.BitString()
	}
	return &treePlan{cfg: cfg, t: t, words: words, childMask: childMask,
		payloads: payloads, perRep: maxDepth + 2}
}

// treeNode is the per-node DP program. Round structure per repetition:
// round 1 broadcasts the initial (leaf) mask; each later round updates
// the DP from neighbors' masks and rebroadcasts; after depth+1 rounds the
// DP has converged and a root-capable node rejects.
//
// A node of color c can only root the subtree of label c, so its mask is
// either all zero or has the single bit c: the state is one bool. In a
// steady-state round the program allocates nothing.
type treeNode struct {
	plan  *treePlan
	color int
	// can reports whether this node roots a properly-colored copy of the
	// subtree at label color.
	can bool
	// slots[p*words:(p+1)*words] is the latest well-formed mask received
	// on port p this repetition (zero if none). Senders sharing an
	// identifier share the first such port, so the latest mask per
	// identifier wins.
	slots []uint64
}

func (tn *treeNode) Init(env *congest.Env) {
	tn.slots = make([]uint64, env.Degree()*tn.plan.words)
}

func (tn *treeNode) mask() bitio.BitString {
	if tn.can {
		return tn.plan.payloads[tn.color]
	}
	return tn.plan.payloads[tn.plan.t]
}

// absorb stores each well-formed neighbor mask in its sender's slot,
// bit i of the payload as bit i%64 of word i/64.
func (tn *treeNode) absorb(env *congest.Env, inbox []congest.Message) {
	p := tn.plan
	for _, m := range inbox {
		port := env.Port(m.From)
		if m.Payload.Len() != p.t || port < 0 {
			continue
		}
		slot := tn.slots[port*p.words : (port+1)*p.words]
		clear(slot)
		for j, b := range m.Payload.Bytes() {
			slot[j/8] |= uint64(bits.Reverse8(b)) << (8 * (j % 8))
		}
	}
}

// covered reports whether every child of label color is rooted at some
// neighbor, i.e. the OR of the current slots contains color's child mask.
// Colors are distinct along an embedding, so the children's copies are
// disjoint. With all slots empty, only a leaf label is covered.
func (tn *treeNode) covered() bool {
	p := tn.plan
	want := p.childMask[tn.color*p.words : (tn.color+1)*p.words]
	for i, cm := range want {
		var or uint64
		for s := i; s < len(tn.slots); s += p.words {
			or |= tn.slots[s]
		}
		if or&cm != cm {
			return false
		}
	}
	return true
}

func (tn *treeNode) Round(env *congest.Env, inbox []congest.Message) {
	p := tn.plan
	r := env.Round() - 1
	rep, offset := r/p.perRep, r%p.perRep
	if rep >= p.cfg.Reps {
		env.Halt()
		return
	}
	if offset == 0 {
		tn.color = colorOf(env, p.cfg.Coloring, rep, p.t)
		clear(tn.slots)
		tn.can = tn.covered() // leaves embed wherever the color matches
		env.Broadcast(tn.mask())
		return
	}
	// The slots are only read while the DP has not succeeded; under
	// faults masks are not monotone, so the latest ones are re-ORed each
	// round rather than accumulated.
	if !tn.can {
		tn.absorb(env, inbox)
		tn.can = tn.covered()
	}
	if tn.can && tn.color == 0 {
		env.Reject() // a properly-colored copy of T is rooted here
	}
	if offset < p.perRep-1 {
		env.Broadcast(tn.mask())
	}
	if offset == p.perRep-1 && rep == p.cfg.Reps-1 {
		env.Halt()
	}
}

// DetectTree runs the color-coding tree detector on nw.
func DetectTree(nw *congest.Network, cfg TreeConfig) (*TreeReport, error) {
	if cfg.Tree == nil || !cfg.Tree.IsTree() {
		return nil, fmt.Errorf("core: pattern is not a tree")
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 1
	}
	plan := newTreePlan(cfg)
	factory := func() congest.Node { return &treeNode{plan: plan} }
	out, err := runRobust(nw, factory, congest.Config{B: plan.t, MaxRounds: plan.perRep*cfg.Reps + 1},
		cfg.RunOptions, nil)
	if out == nil {
		return nil, err
	}
	return &TreeReport{Outcome: *out, RoundsPerRep: plan.perRep}, err
}
