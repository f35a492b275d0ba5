package loadtest

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"time"

	"subgraph"
	"subgraph/internal/graph"
	"subgraph/internal/serve"
)

// Churn workload: a long-lived graph evolves through a chain of small
// deltas while a clique count is kept live. Every step is answered two
// ways — incrementally through POST /v1/graphs/{digest}/delta (watch
// evaluation rides the CountDelta chain) and from scratch via a count
// job on a relabeled copy of the same successor under a fresh digest
// (relabeling changes the content address, so the result cache cannot
// answer; the kernel recounts the whole graph). The ratio of the two
// wall-time totals is the incremental speedup the evolving-graph
// subsystem buys at that churn rate.

// ChurnConfig tunes the churn harness.
type ChurnConfig struct {
	// BaseURL targets a running server.
	BaseURL string
	// Steps is the delta-chain length (default 40).
	Steps int
	// GraphN is the evolving graph's vertex count (default 2000).
	GraphN int
	// Degree is the target average degree (default 40); the base graph is
	// GNP with p = Degree/(GraphN-1).
	Degree float64
	// Changes is the number of edge changes per delta (default 8, split
	// between inserts and deletes so the density stays put). The churn
	// ratio per step is Changes / m.
	Changes int
	// Pattern is the watched clique-family pattern (default "clique:4").
	Pattern string
	// Seed drives graph generation and the delta stream.
	Seed int64
	// Retry overrides the client's retry policy (nil = defaults).
	Retry *serve.RetryPolicy
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Steps <= 0 {
		c.Steps = 40
	}
	if c.GraphN <= 0 {
		c.GraphN = 2000
	}
	if c.Degree <= 0 {
		c.Degree = 40
	}
	if c.Changes <= 0 {
		c.Changes = 8
	}
	if c.Pattern == "" {
		c.Pattern = "clique:4"
	}
	return c
}

// Workload renders the churn mix descriptor recorded in the report.
func (c ChurnConfig) Workload() string {
	c = c.withDefaults()
	return fmt.Sprintf("churn steps=%d n=%d deg=%.0f changes=%d pattern=%s seed=%d",
		c.Steps, c.GraphN, c.Degree, c.Changes, c.Pattern, c.Seed)
}

// ChurnResult aggregates a churn run.
type ChurnResult struct {
	Workload string `json:"workload"`
	Steps    int    `json:"steps"`
	// MeanChurnPct is the mean per-delta churn ratio, in percent.
	MeanChurnPct float64 `json:"mean_churn_pct"`
	// IncrementalSteps counts deltas the server evaluated incrementally;
	// FallbackSteps the ones it recomputed in full (churn over threshold).
	IncrementalSteps int `json:"incremental_steps"`
	FallbackSteps    int `json:"fallback_steps"`
	// Forwarded sums forwarded count-cache entries across the chain.
	Forwarded int64 `json:"forwarded_cache_entries"`
	// Incremental vs from-scratch wall time, end to end per step.
	IncWallNs     int64 `json:"incremental_wall_ns"`
	ScratchWallNs int64 `json:"scratch_wall_ns"`
	IncP50Ns      int64 `json:"incremental_p50_ns"`
	IncP99Ns      int64 `json:"incremental_p99_ns"`
	ScratchP50Ns  int64 `json:"scratch_p50_ns"`
	ScratchP99Ns  int64 `json:"scratch_p99_ns"`
	// SpeedupX is ScratchWallNs / IncWallNs.
	SpeedupX float64 `json:"speedup_x"`
	Errors   int     `json:"errors"`
}

// BenchReport renders the result in cmd/benchreport's schema.
func (r *ChurnResult) BenchReport() any {
	return &benchReport{
		Schema:    "benchreport-v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Package:   "churn://subgraphd",
		Benchtime: fmt.Sprintf("%d steps", r.Steps),
		Workload:  r.Workload,
		Benchmarks: []benchReportRow{
			{Name: "ChurnIncrementalP50", NsPerOp: float64(r.IncP50Ns)},
			{Name: "ChurnIncrementalP99", NsPerOp: float64(r.IncP99Ns)},
			{Name: "ChurnScratchP50", NsPerOp: float64(r.ScratchP50Ns)},
			{Name: "ChurnScratchP99", NsPerOp: float64(r.ScratchP99Ns)},
			{Name: "ChurnSpeedupX", NsPerOp: r.SpeedupX},
			{Name: "ChurnMeanChurnPct", NsPerOp: r.MeanChurnPct},
			{Name: "ChurnIncrementalSteps", NsPerOp: float64(r.IncrementalSteps)},
			{Name: "ChurnFallbackSteps", NsPerOp: float64(r.FallbackSteps)},
			{Name: "ChurnForwardedEntries", NsPerOp: float64(r.Forwarded)},
		},
	}
}

// churnDelta draws a delta with half deletes, half inserts (density-
// preserving), sampled without replacement against g.
func churnDelta(rng *rand.Rand, g *graph.Graph, changes int) graph.EdgeDelta {
	var d graph.EdgeDelta
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	nDel := changes / 2
	if nDel > len(edges) {
		nDel = len(edges)
	}
	d.Delete = append(d.Delete, edges[:nDel]...)
	deleted := make(map[[2]int]bool, nDel)
	for _, e := range edges[:nDel] {
		deleted[e] = true
	}
	n := g.N()
	for tries := 0; len(d.Insert) < changes-nDel && tries < 100*changes; tries++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := [2]int{u, v}
		if g.HasEdge(u, v) || deleted[e] {
			continue
		}
		d.Insert = append(d.Insert, e)
		deleted[e] = true
	}
	return d
}

// RunChurn drives the churn workload and measures incremental-vs-scratch
// wall time per step.
func RunChurn(cfg ChurnConfig) (*ChurnResult, error) {
	cfg = cfg.withDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &serve.Client{Base: cfg.BaseURL, HTTPClient: &http.Client{Timeout: 60 * time.Second}, Retry: cfg.Retry}

	rng := rand.New(rand.NewSource(cfg.Seed))
	cur := subgraph.GNP(cfg.GraphN, cfg.Degree/float64(cfg.GraphN-1), rng)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, cur); err != nil {
		return nil, err
	}
	up, err := c.UploadGraph(buf.String())
	if err != nil {
		return nil, fmt.Errorf("churn: uploading base graph: %w", err)
	}
	logf("churn base graph: n=%d m=%d digest=%s", cur.N(), cur.M(), up.Digest[:12])

	// Prime the lineage: a count job on the base seeds the cache entry the
	// first delta's watch evaluation chains from.
	jv, status, err := c.SubmitJob(serve.JobSpec{Graph: up.Digest, Pattern: cfg.Pattern, Mode: serve.ModeCount})
	if err != nil {
		return nil, fmt.Errorf("churn: priming count job: %w", err)
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return nil, fmt.Errorf("churn: priming count job: HTTP %d", status)
	}
	if jv.State != serve.StateDone {
		if jv, err = c.WaitJob(jv.ID, 60*time.Second); err != nil {
			return nil, fmt.Errorf("churn: priming count job: %w", err)
		}
	}
	if jv.State != serve.StateDone || jv.Result == nil || jv.Result.Count == nil {
		return nil, fmt.Errorf("churn: priming count job ended %s (%s)", jv.State, jv.Error)
	}

	res := &ChurnResult{Workload: cfg.Workload(), Steps: cfg.Steps}
	incNs := make([]int64, 0, cfg.Steps)
	scratchNs := make([]int64, 0, cfg.Steps)
	curDigest := up.Digest
	var churnSum float64
	for step := 0; step < cfg.Steps; step++ {
		d := churnDelta(rng, cur, cfg.Changes)

		// Incremental path: the delta endpoint, the watched count riding
		// along. End-to-end wall covers request, successor build, cache
		// forwarding, and the incremental recount.
		t0 := time.Now()
		dv, status, err := c.ApplyDelta(curDigest, serve.DeltaRequest{
			Insert: d.Insert, Delete: d.Delete, Watch: []string{cfg.Pattern},
		})
		dt := time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("churn step %d: delta: %w", step, err)
		}
		if status != http.StatusCreated && status != http.StatusOK {
			return nil, fmt.Errorf("churn step %d: delta HTTP %d", step, status)
		}
		incNs = append(incNs, dt)
		churnSum += dv.ChurnRatio
		if dv.Incremental {
			res.IncrementalSteps++
		} else {
			res.FallbackSteps++
		}
		res.Forwarded += int64(dv.Forwarded)
		if len(dv.Watch) != 1 || dv.Watch[0].Count == nil {
			return nil, fmt.Errorf("churn step %d: watch result missing: %+v", step, dv.Watch)
		}
		watched := *dv.Watch[0].Count

		// Advance the local mirror of the chain.
		applied, err := graph.ApplyDelta(cur, d)
		if err != nil {
			return nil, fmt.Errorf("churn step %d: local apply: %w", step, err)
		}
		if applied.Graph.Digest() != dv.Digest {
			return nil, fmt.Errorf("churn step %d: digest divergence: local %s, server %s",
				step, applied.Graph.Digest(), dv.Digest)
		}

		// From-scratch comparator: the same successor relabeled under a
		// fresh permutation gets a new content address, so its count job
		// cannot hit the cache — the kernel recounts the whole graph. The
		// measured wall covers upload + count: the full cost of learning
		// the evolved graph's answer without the delta machinery, exactly
		// what the incremental wall covers (successor build + store +
		// recount in one request).
		perm := rng.Perm(applied.Graph.N())
		twin := graph.Relabel(applied.Graph, perm)
		buf.Reset()
		if err := graph.WriteEdgeList(&buf, twin); err != nil {
			return nil, err
		}
		t1 := time.Now()
		tup, err := c.UploadGraph(buf.String())
		if err != nil {
			return nil, fmt.Errorf("churn step %d: uploading twin: %w", step, err)
		}
		sj, status, err := c.SubmitJob(serve.JobSpec{Graph: tup.Digest, Pattern: cfg.Pattern, Mode: serve.ModeCount})
		if err != nil {
			return nil, fmt.Errorf("churn step %d: scratch count: %w", step, err)
		}
		if status != http.StatusOK && status != http.StatusAccepted {
			return nil, fmt.Errorf("churn step %d: scratch count HTTP %d", step, status)
		}
		if sj.State != serve.StateDone {
			if sj, err = c.WaitJob(sj.ID, 60*time.Second); err != nil {
				return nil, fmt.Errorf("churn step %d: scratch count: %w", step, err)
			}
		}
		st := time.Since(t1).Nanoseconds()
		if sj.State != serve.StateDone || sj.Result == nil || sj.Result.Count == nil {
			return nil, fmt.Errorf("churn step %d: scratch count ended %s (%s)", step, sj.State, sj.Error)
		}
		scratchNs = append(scratchNs, st)

		// Cross-check: the incremental watch, the from-scratch recount on
		// the relabeled twin, and the previous count must be consistent.
		if *sj.Result.Count != watched {
			return nil, fmt.Errorf("churn step %d: incremental count %d != from-scratch count %d",
				step, watched, *sj.Result.Count)
		}
		cur, curDigest = applied.Graph, dv.Digest
	}

	res.MeanChurnPct = 100 * churnSum / float64(cfg.Steps)
	sum := func(xs []int64) int64 {
		var s int64
		for _, x := range xs {
			s += x
		}
		return s
	}
	res.IncWallNs, res.ScratchWallNs = sum(incNs), sum(scratchNs)
	sort.Slice(incNs, func(i, j int) bool { return incNs[i] < incNs[j] })
	sort.Slice(scratchNs, func(i, j int) bool { return scratchNs[i] < scratchNs[j] })
	res.IncP50Ns, res.IncP99Ns = percentile(incNs, 50), percentile(incNs, 99)
	res.ScratchP50Ns, res.ScratchP99Ns = percentile(scratchNs, 50), percentile(scratchNs, 99)
	if res.IncWallNs > 0 {
		res.SpeedupX = float64(res.ScratchWallNs) / float64(res.IncWallNs)
	}
	logf("churn: %d steps at %.3f%% mean churn: incremental p50 %v / p99 %v, scratch p50 %v / p99 %v, speedup %.1fx (%d incremental, %d fallback, %d forwarded entries)",
		res.Steps, res.MeanChurnPct,
		time.Duration(res.IncP50Ns).Round(time.Microsecond),
		time.Duration(res.IncP99Ns).Round(time.Microsecond),
		time.Duration(res.ScratchP50Ns).Round(time.Microsecond),
		time.Duration(res.ScratchP99Ns).Round(time.Microsecond),
		res.SpeedupX, res.IncrementalSteps, res.FallbackSteps, res.Forwarded)
	return res, nil
}
