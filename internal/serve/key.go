package serve

import (
	"fmt"

	"subgraph"
	"subgraph/internal/kernel"
)

// Spec validation and result-cache keys. A worker's admission (prepare)
// and the cluster router both check a spec with CheckSpec and key it with
// CheckedSpec.Key: the router must accept, reject and cache exactly as a
// worker does, or a client could tell the two apart and a router cache
// hit could answer a spec every worker refuses (pinned by
// TestSpecCacheKeyMatchesPrepare and FuzzJobSpec).

// CheckedSpec is what CheckSpec learns from a job spec: the parsed
// pattern, the decoded options and, for count jobs, the clique size.
type CheckedSpec struct {
	pattern *subgraph.Graph
	opts    subgraph.Options
	cliqueS int // count mode: the kernel clique size; 0 in detect mode
}

// CheckSpec validates every field of a spec that does not need the
// stored graph — graph reference shape, pattern, options, priority and
// mode — and answers a rejection with the worker's status and message.
func CheckSpec(spec JobSpec) (CheckedSpec, *APIError) {
	if (spec.Graph == "") == (spec.GraphInline == "") {
		return CheckedSpec{}, badRequest("exactly one of \"graph\" (digest) and \"graph_inline\" (edge list) must be set")
	}
	h, err := subgraph.ParsePattern(spec.Pattern)
	if err != nil {
		return CheckedSpec{}, badRequest(err.Error())
	}
	opts, err := spec.Options.Options()
	if err != nil {
		return CheckedSpec{}, badRequest(err.Error())
	}
	if !validPriority(spec.Priority) {
		return CheckedSpec{}, badRequest(fmt.Sprintf("unknown priority %q (want low, normal, or high)", spec.Priority))
	}
	c := CheckedSpec{pattern: h, opts: opts}
	switch spec.Mode {
	case "", ModeDetect:
	case ModeCount:
		var ok bool
		c.cliqueS, ok = kernel.CliqueSize(h)
		if !ok {
			return CheckedSpec{}, badRequest(fmt.Sprintf(
				"pattern %q is not kernel-countable: count mode serves clique-family patterns only (triangle, cycle:3, clique:2..%d)",
				spec.Pattern, kernel.MaxCliqueSize))
		}
		if spec.Trace {
			return CheckedSpec{}, badRequest("count jobs run the local kernel and produce no engine trace; submit in detect mode to trace")
		}
		if spec.Options.Faults != nil || spec.Options.Resilient {
			return CheckedSpec{}, badRequest("count jobs run the local kernel; fault injection and resilience apply to simulations only")
		}
	default:
		return CheckedSpec{}, badRequest(fmt.Sprintf("unknown mode %q (want \"detect\" or \"count\")", spec.Mode))
	}
	return c, nil
}

// Key is the result-cache key of the checked spec run on the graph
// stored under digest.
func (c CheckedSpec) Key(digest string) string {
	return cacheKey(digest, c.pattern, subgraph.OptionsSpecOf(c.opts), c.cliqueS > 0)
}

// cacheKey computes the result-cache key for a prepared job.
//
// The key uses the *pattern graph's* digest, so aliases like "triangle"
// and "cycle:3" share entries. The deadline is stripped: only complete
// (non-partial) results are ever cached, and a complete result is
// deadline-independent — the engine checks the budget between rounds but
// the execution itself is a pure function of (graph, pattern,
// options-sans-deadline, seed). Keying the deadline would split
// identical executions into per-deadline cache entries and miss on every
// requests-differ-only-in-deadline resubmission.
//
// Count-mode keys drop the options entirely: a count is a pure function
// of (graph, clique size) — seeds, reps and engine selection never
// change it — so requests differing only there share one entry (and
// coalesce onto one in-flight kernel pass).
func cacheKey(digest string, h *subgraph.Graph, effective subgraph.OptionsSpec, count bool) string {
	if count {
		return digest + "|" + h.Digest() + "|" + ModeCount
	}
	keySpec := effective
	keySpec.DeadlineMs = 0
	return digest + "|" + h.Digest() + "|" + keySpec.Canonical()
}
