package serve

import (
	"testing"

	"subgraph"
)

// TestSpecCacheKeyMatchesPrepare pins the shared spec contract: CheckSpec
// — what the cluster router runs, without the stored graph — accepts and
// rejects exactly the specs the worker-side prepare() does, with the same
// status and message, and CheckedSpec.Key produces byte-identical keys to
// prepare() for every accepted shape. Otherwise a router cache hit and a
// worker cache hit would diverge and "a hit on any node is a hit
// everywhere" breaks.
func TestSpecCacheKeyMatchesPrepare(t *testing.T) {
	s := New(Config{})
	text, g := testEdgeList(t, 3)
	digest, _ := s.store.Put(g)

	specs := []struct {
		spec   JobSpec
		reject bool
	}{
		{spec: JobSpec{Graph: digest, Pattern: "triangle"}},
		{spec: JobSpec{Graph: digest, Pattern: "cycle:3"}}, // alias of triangle: same pattern digest
		{spec: JobSpec{Graph: digest, Pattern: "clique:4", Options: subgraph.OptionsSpec{Seed: 42, Parallel: true}}},
		{spec: JobSpec{Graph: digest, Pattern: "path:3", Options: subgraph.OptionsSpec{DeadlineMs: 1500}}},
		{spec: JobSpec{Graph: digest, Pattern: "star:4", Priority: PriorityHigh}},
		{spec: JobSpec{Graph: digest, Pattern: "triangle", Mode: ModeCount}},
		{spec: JobSpec{Graph: digest, Pattern: "clique:5", Mode: ModeCount, Options: subgraph.OptionsSpec{Seed: 9}}},
		{spec: JobSpec{GraphInline: text, Pattern: "triangle"}}, // stores to digest
		{spec: JobSpec{Graph: digest, GraphInline: text, Pattern: "triangle"}, reject: true},
		{spec: JobSpec{Pattern: "triangle"}, reject: true},
		{spec: JobSpec{Graph: digest, Pattern: "nope"}, reject: true},
		{spec: JobSpec{Graph: digest, Pattern: "triangle", Options: subgraph.OptionsSpec{Reps: -1}}, reject: true},
		{spec: JobSpec{Graph: digest, Pattern: "triangle", Priority: "urgent"}, reject: true},
		{spec: JobSpec{Graph: digest, Pattern: "triangle", Mode: "guess"}, reject: true},
		{spec: JobSpec{Graph: digest, Pattern: "path:5", Mode: ModeCount}, reject: true},
		{spec: JobSpec{Graph: digest, Pattern: "triangle", Mode: ModeCount, Trace: true}, reject: true},
		{spec: JobSpec{Graph: digest, Pattern: "triangle", Mode: ModeCount,
			Options: subgraph.OptionsSpec{Faults: &subgraph.FaultSpec{DropRate: 0.1}}}, reject: true},
		{spec: JobSpec{Graph: digest, Pattern: "triangle", Mode: ModeCount,
			Options: subgraph.OptionsSpec{Resilient: true}}, reject: true},
	}
	for _, tc := range specs {
		chk, cerr := CheckSpec(tc.spec)
		j, perr := s.prepare(tc.spec)
		if j != nil {
			s.releaseJobPin(j)
		}
		if tc.reject {
			if cerr == nil || perr == nil || *cerr != *perr {
				t.Errorf("rejection differs for %+v:\n  CheckSpec: %+v\n  prepare:   %+v", tc.spec, cerr, perr)
			}
			continue
		}
		if cerr != nil || perr != nil {
			t.Fatalf("spec %+v refused: CheckSpec %+v, prepare %+v", tc.spec, cerr, perr)
		}
		if key := chk.Key(digest); key != j.key {
			t.Errorf("key mismatch for %+v:\n  prepare: %s\n  spec:    %s", tc.spec, j.key, key)
		}
	}

	key := func(spec JobSpec) string {
		t.Helper()
		chk, err := CheckSpec(spec)
		if err != nil {
			t.Fatal(err.Msg)
		}
		return chk.Key(digest)
	}
	// Deadline independence: specs differing only in deadline share a key.
	k1 := key(JobSpec{Graph: digest, Pattern: "triangle", Options: subgraph.OptionsSpec{DeadlineMs: 100}})
	k2 := key(JobSpec{Graph: digest, Pattern: "triangle", Options: subgraph.OptionsSpec{DeadlineMs: 90000}})
	if k1 != k2 {
		t.Errorf("deadline leaked into the key:\n%s\n%s", k1, k2)
	}

	// Count keys are options-free.
	c1 := key(JobSpec{Graph: digest, Pattern: "triangle", Mode: ModeCount})
	c2 := key(JobSpec{Graph: digest, Pattern: "cycle:3", Mode: ModeCount, Options: subgraph.OptionsSpec{Seed: 77, Reps: 3}})
	if c1 != c2 {
		t.Errorf("count keys differ across option-only changes:\n%s\n%s", c1, c2)
	}
}
