// Package loadtest drives a running subgraphd daemon or cluster router
// from the outside: the seeded job-mix load generator (RunLoadGen), the
// evolving-graph churn workload (RunChurn), the end-to-end self-check
// (SelfCheck), and a client-side fault injector (Chaos). It reaches the
// daemon only through serve's exported client, wire types and metric
// names, so it exercises exactly the surface a remote client sees.
package loadtest

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"subgraph"
	"subgraph/internal/graph"
	"subgraph/internal/serve"
)

// LoadGenConfig tunes the load harness.
type LoadGenConfig struct {
	// BaseURL targets a running server.
	BaseURL string
	// Jobs is the total number of jobs to replay (default 200).
	Jobs int
	// Concurrency is the number of client workers submitting and polling
	// (default 8).
	Concurrency int
	// Seed drives the whole mix: graph generation, pattern choice, job
	// seeds, and repetition — the same seed replays the same workload.
	Seed int64
	// Graphs is the number of distinct topologies in the mix (default 4).
	Graphs int
	// GraphN is the vertex count per topology (default 150).
	GraphN int
	// RepeatFraction is the probability a job repeats an earlier job
	// verbatim, exercising the result cache (default 0.5).
	RepeatFraction float64
	// LowPriorityFraction is the probability a job is submitted at low
	// priority — the first tier the SLO guard sheds under pressure.
	LowPriorityFraction float64
	// CountFraction is the probability a fresh job is submitted in count
	// mode — a clique-family pattern routed to the local kernel backend
	// instead of the CONGEST simulation. Zero draws nothing from the rng,
	// so old seeds replay bit-identical mixes.
	CountFraction float64
	// Warmup is the number of unmeasured jobs (replaying the measured
	// mix) run before the metrics snapshot, so measured sections observe
	// steady-state cache behavior instead of cold-start misses. Zero
	// keeps the historical cold-cache behavior.
	Warmup int
	// Retry overrides the client's retry policy (nil = defaults).
	Retry *serve.RetryPolicy
	// Chaos, when set, puts a seeded fault injector on the client's
	// transport; the result's Chaos* columns count what it injected
	// during the measured section.
	Chaos *ChaosConfig
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
	// Nodes and Replication describe the cluster topology behind BaseURL
	// (router + N workers, graphs replicated R ways). Zero Nodes means a
	// single-node run and keeps the workload descriptor byte-identical to
	// historical baselines; when set, both are recorded in the descriptor
	// so cmd/benchreport refuses to silently compare a 3-node run against
	// a single-node baseline.
	Nodes int
	// Replication is meaningful only when Nodes > 0.
	Replication int
}

// Workload renders the canonical mix descriptor recorded in results and
// baseline files. cmd/benchreport warns when diffing two reports whose
// descriptors differ — the BENCH_PR7 lesson: a run measured under chaos
// with a cold cache is not comparable to a clean warmed run, and the
// files have to say so.
func (c LoadGenConfig) Workload() string {
	c = c.withDefaults()
	desc := fmt.Sprintf("jobs=%d conc=%d graphs=%dx%d repeat=%.2f low=%.2f count=%.2f warmup=%d seed=%d",
		c.Jobs, c.Concurrency, c.Graphs, c.GraphN, c.RepeatFraction,
		c.LowPriorityFraction, c.CountFraction, c.Warmup, c.Seed)
	if c.Nodes > 0 {
		desc += fmt.Sprintf(" nodes=%d repl=%d", c.Nodes, c.Replication)
	}
	return desc
}

func (c LoadGenConfig) withDefaults() LoadGenConfig {
	if c.Jobs <= 0 {
		c.Jobs = 200
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Graphs <= 0 {
		c.Graphs = 4
	}
	if c.GraphN <= 0 {
		c.GraphN = 150
	}
	if c.RepeatFraction < 0 || c.RepeatFraction >= 1 {
		c.RepeatFraction = 0.5
	}
	return c
}

// LoadGenResult aggregates a load run.
type LoadGenResult struct {
	// Workload echoes LoadGenConfig.Workload() — the mix descriptor that
	// gates baseline comparability in cmd/benchreport.
	Workload    string  `json:"workload"`
	Jobs        int     `json:"jobs"`
	Errors      int     `json:"errors"`
	Retried429  int     `json:"retried_429"`
	WallNs      int64   `json:"wall_ns"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	MeanNs      int64   `json:"mean_ns"`
	P50Ns       int64   `json:"p50_ns"`
	P90Ns       int64   `json:"p90_ns"`
	P99Ns       int64   `json:"p99_ns"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	HitRatePct  float64 `json:"cache_hit_rate_pct"`

	// Robustness columns (PR 6).

	// Shed counts jobs whose submission ultimately came back 429 — the
	// server's honest "not now" (SLO shedding or a saturated queue) after
	// the client's backoff budget. Sheds are not errors.
	Shed int `json:"shed"`
	// ShedRatePct is Shed over the requested job count.
	ShedRatePct float64 `json:"shed_rate_pct"`
	// ServerSheds is the server-side SLO shed counter delta (each retried
	// submission that is shed again counts once more).
	ServerSheds int64 `json:"server_sheds"`
	// Retries / Recovered / RetrySuccessPct mirror the client's
	// ClientStatsView over the whole run.
	Retries         int64   `json:"client_retries"`
	Recovered       int64   `json:"client_recovered"`
	RetrySuccessPct float64 `json:"client_retry_success_pct"`
	// Chaos injection counters (zero without LoadGenConfig.Chaos).
	Chaos429    int64 `json:"chaos_429"`
	Chaos503    int64 `json:"chaos_503"`
	ChaosDelays int64 `json:"chaos_delays"`
	// Canary columns, filled in by the caller after draining the canary
	// (the run's own metrics snapshot would race the canary worker).
	CanaryChecked     int64 `json:"canary_checked"`
	CanaryDivergences int64 `json:"canary_divergences"`

	// Latency breakdown (PR 7), derived from the span timelines the
	// server's flight recorder held after the run: where completed jobs
	// actually spent their time, versus the end-to-end percentiles above.
	// BreakdownTimelines is how many completed-job timelines the numbers
	// are computed over (bounded by the server's flight-recorder size).
	BreakdownTimelines int   `json:"breakdown_timelines"`
	QueueWaitP50Ns     int64 `json:"queue_wait_p50_ns"`
	QueueWaitP99Ns     int64 `json:"queue_wait_p99_ns"`
	EngineP50Ns        int64 `json:"engine_p50_ns"`
	EngineP99Ns        int64 `json:"engine_p99_ns"`
	// CacheHitP*Ns are end-to-end latencies of jobs answered from the
	// result cache (the no-engine fast path).
	CacheHitP50Ns int64 `json:"cache_hit_p50_ns"`
	CacheHitP99Ns int64 `json:"cache_hit_p99_ns"`

	// Kernel-backend columns (PR 8): how count-mode jobs fared on the
	// word-parallel local backend.
	KernelRuns      int64 `json:"kernel_runs"`
	KernelJobs      int64 `json:"kernel_jobs"`
	JobsBatched     int64 `json:"jobs_batched"`
	PressureBatched int64 `json:"pressure_batched"`
	KernelRunP50Ns  int64 `json:"kernel_run_p50_ns"`
	KernelRunP99Ns  int64 `json:"kernel_run_p99_ns"`
}

// benchReport mirrors cmd/benchreport's JSON document so loadgen baselines
// (BENCH_PR4.json) diff with the same tooling as the engine benchmarks.
type benchReport struct {
	Schema     string           `json:"schema"`
	GoVersion  string           `json:"go"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	Package    string           `json:"package"`
	Benchtime  string           `json:"benchtime"`
	Workload   string           `json:"workload,omitempty"`
	Benchmarks []benchReportRow `json:"benchmarks"`
}

type benchReportRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// BenchReport renders the result in cmd/benchreport's schema: latency
// percentiles and end-to-end throughput as ns/op rows, the cache hit rate
// as a percentage row.
func (r *LoadGenResult) BenchReport() any {
	perJob := float64(0)
	if r.Jobs > 0 {
		perJob = float64(r.WallNs) / float64(r.Jobs)
	}
	return &benchReport{
		Schema:    "benchreport-v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Package:   "loadgen://subgraphd",
		Benchtime: fmt.Sprintf("%d jobs", r.Jobs),
		Workload:  r.Workload,
		Benchmarks: []benchReportRow{
			{Name: "ServeJobLatencyP50", NsPerOp: float64(r.P50Ns)},
			{Name: "ServeJobLatencyP90", NsPerOp: float64(r.P90Ns)},
			{Name: "ServeJobLatencyP99", NsPerOp: float64(r.P99Ns)},
			{Name: "ServeJobLatencyMean", NsPerOp: float64(r.MeanNs)},
			{Name: "ServeJobThroughput", NsPerOp: perJob},
			{Name: "ServeCacheHitRatePct", NsPerOp: r.HitRatePct},
			{Name: "ServeShedRatePct", NsPerOp: r.ShedRatePct},
			{Name: "ClientRetriesTotal", NsPerOp: float64(r.Retries)},
			{Name: "ClientRetrySuccessPct", NsPerOp: r.RetrySuccessPct},
			{Name: "ChaosInjected429Total", NsPerOp: float64(r.Chaos429)},
			{Name: "ChaosInjected503Total", NsPerOp: float64(r.Chaos503)},
			{Name: "CanaryCheckedTotal", NsPerOp: float64(r.CanaryChecked)},
			{Name: "CanaryDivergenceTotal", NsPerOp: float64(r.CanaryDivergences)},
			{Name: "ServeQueueWaitP50", NsPerOp: float64(r.QueueWaitP50Ns)},
			{Name: "ServeQueueWaitP99", NsPerOp: float64(r.QueueWaitP99Ns)},
			{Name: "ServeEngineRunP50", NsPerOp: float64(r.EngineP50Ns)},
			{Name: "ServeEngineRunP99", NsPerOp: float64(r.EngineP99Ns)},
			{Name: "ServeCacheHitPathP50", NsPerOp: float64(r.CacheHitP50Ns)},
			{Name: "ServeCacheHitPathP99", NsPerOp: float64(r.CacheHitP99Ns)},
			{Name: "ServeKernelRunsTotal", NsPerOp: float64(r.KernelRuns)},
			{Name: "ServeKernelJobsTotal", NsPerOp: float64(r.KernelJobs)},
			{Name: "ServeJobsBatchedTotal", NsPerOp: float64(r.JobsBatched)},
			{Name: "ServeKernelRunP50", NsPerOp: float64(r.KernelRunP50Ns)},
			{Name: "ServeKernelRunP99", NsPerOp: float64(r.KernelRunP99Ns)},
		},
	}
}

// fillBreakdown computes the queue-wait / engine / cache-hit-path latency
// percentiles from the server's recorded span timelines. Best-effort: a
// server without a flight recorder yields zero rows, not an error.
func fillBreakdown(res *LoadGenResult, c *serve.Client, logf func(string, ...any)) {
	dj, err := c.DebugJobs()
	if err != nil {
		logf("breakdown skipped: %v", err)
		return
	}
	var qwait, engine, cachehit, kern []int64
	for _, tl := range dj.Timelines {
		if tl.Outcome != serve.StateDone {
			continue
		}
		res.BreakdownTimelines++
		if lookup := tl.SpanByName("cache_lookup"); lookup != nil {
			if v, ok := lookup.Annotation("result"); ok && v == "hit" {
				cachehit = append(cachehit, tl.TotalNs)
				continue
			}
		}
		if sp := tl.SpanByName("queue_wait"); sp != nil {
			qwait = append(qwait, sp.DurationNs())
		}
		// A job may bracket several engine runs (reps); attribute each.
		for i := range tl.Spans {
			if tl.Spans[i].Name == "engine_run" {
				engine = append(engine, tl.Spans[i].DurationNs())
			}
		}
		for _, sp := range tl.SpansByName("kernel_run") {
			kern = append(kern, sp.DurationNs())
		}
	}
	pcts := func(xs []int64) (p50, p99 int64) {
		if len(xs) == 0 {
			return 0, 0
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return percentile(xs, 50), percentile(xs, 99)
	}
	res.QueueWaitP50Ns, res.QueueWaitP99Ns = pcts(qwait)
	res.EngineP50Ns, res.EngineP99Ns = pcts(engine)
	res.CacheHitP50Ns, res.CacheHitP99Ns = pcts(cachehit)
	res.KernelRunP50Ns, res.KernelRunP99Ns = pcts(kern)
	logf("breakdown over %d recorded timelines: queue-wait p50 %v / p99 %v, engine p50 %v / p99 %v, cache-hit path p50 %v / p99 %v",
		res.BreakdownTimelines,
		time.Duration(res.QueueWaitP50Ns).Round(time.Microsecond),
		time.Duration(res.QueueWaitP99Ns).Round(time.Microsecond),
		time.Duration(res.EngineP50Ns).Round(time.Microsecond),
		time.Duration(res.EngineP99Ns).Round(time.Microsecond),
		time.Duration(res.CacheHitP50Ns).Round(time.Microsecond),
		time.Duration(res.CacheHitP99Ns).Round(time.Microsecond))
}

// RunLoadGen replays a seeded job mix against a running server and
// measures end-to-end (submit → terminal poll) latency per job.
func RunLoadGen(cfg LoadGenConfig) (*LoadGenResult, error) {
	cfg = cfg.withDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	hc := &http.Client{Timeout: 60 * time.Second}
	var chaos *Chaos
	if cfg.Chaos != nil {
		chaos = NewChaos(*cfg.Chaos)
		hc.Transport = chaos
	}
	c := &serve.Client{Base: cfg.BaseURL, HTTPClient: hc, Retry: cfg.Retry}

	// Seeded topology mix: GNP backgrounds with planted triangles,
	// 4-cycles, and 4-cliques so every pattern in the job mix has both
	// positive and negative instances.
	// Uploads are few and abort the whole run on failure, so they get a
	// more patient policy than the per-job submissions.
	uploadPolicy := serve.DefaultRetryPolicy()
	if cfg.Retry != nil {
		uploadPolicy = *cfg.Retry
	}
	if uploadPolicy.MaxAttempts < 8 {
		uploadPolicy.MaxAttempts = 8
	}
	uc := &serve.Client{Base: cfg.BaseURL, HTTPClient: c.HTTPClient, Retry: &uploadPolicy}

	rng := rand.New(rand.NewSource(cfg.Seed))
	digests := make([]string, 0, cfg.Graphs)
	for i := 0; i < cfg.Graphs; i++ {
		g := subgraph.GNP(cfg.GraphN, 1.2/float64(cfg.GraphN), rng)
		switch i % 3 {
		case 0:
			g, _ = subgraph.PlantClique(g, 3, rng)
		case 1:
			g, _ = subgraph.PlantCycle(g, 4, rng)
		case 2:
			g, _ = subgraph.PlantClique(g, 4, rng)
		}
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			return nil, err
		}
		up, err := uc.UploadGraph(buf.String())
		if err != nil {
			return nil, fmt.Errorf("loadgen: uploading graph %d: %w", i, err)
		}
		digests = append(digests, up.Digest)
	}
	logf("uploaded %d graphs (n=%d each)", len(digests), cfg.GraphN)

	patterns := []string{"triangle", "cycle:4", "clique:4", "path:4", "star:3"}
	countPatterns := []string{"triangle", "clique:4", "clique:5"}
	specs := make([]serve.JobSpec, cfg.Jobs)
	for i := range specs {
		if i > 0 && rng.Float64() < cfg.RepeatFraction {
			specs[i] = specs[rng.Intn(i)] // verbatim repeat → cache exercise
			continue
		}
		specs[i] = serve.JobSpec{
			Graph:   digests[rng.Intn(len(digests))],
			Pattern: patterns[rng.Intn(len(patterns))],
			Options: subgraph.OptionsSpec{Seed: int64(rng.Intn(16))},
		}
		if rng.Float64() < cfg.LowPriorityFraction {
			specs[i].Priority = serve.PriorityLow
		}
		// Short-circuit keeps the rng stream untouched at CountFraction 0,
		// so historical seeds still replay their exact mixes.
		if cfg.CountFraction > 0 && rng.Float64() < cfg.CountFraction {
			specs[i].Pattern = countPatterns[rng.Intn(len(countPatterns))]
			specs[i].Mode = serve.ModeCount
		}
	}

	// Unmeasured warm-up: replay the measured mix so the result cache and
	// kernel scratch reach steady state before the metrics snapshot. A
	// dedicated client keeps warm-up retries out of the measured stats.
	if cfg.Warmup > 0 {
		wc := &serve.Client{Base: cfg.BaseURL, HTTPClient: c.HTTPClient, Retry: cfg.Retry}
		var wwg sync.WaitGroup
		wnext := make(chan int)
		for w := 0; w < cfg.Concurrency; w++ {
			wwg.Add(1)
			go func() {
				defer wwg.Done()
				for i := range wnext {
					jv, status, err := wc.SubmitJob(specs[i%len(specs)])
					if err != nil || (status != http.StatusOK && status != http.StatusAccepted) {
						continue
					}
					if jv.State != serve.StateDone && jv.State != serve.StateFailed {
						_, _ = wc.WaitJob(jv.ID, 60*time.Second)
					}
				}
			}()
		}
		for i := 0; i < cfg.Warmup; i++ {
			wnext <- i
		}
		close(wnext)
		wwg.Wait()
		logf("warm-up: replayed %d unmeasured jobs", cfg.Warmup)
	}

	before, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	chaos429, chaos503, chaosDelays := chaos.counts()

	latencies := make([]int64, cfg.Jobs)
	var errs, shed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				// The client owns transient failures: capped exponential
				// backoff, Retry-After honored, per-attempt timeouts. What
				// comes back here is the server's settled answer.
				jv, status, err := c.SubmitJob(specs[i])
				if status == http.StatusTooManyRequests {
					// An honest final 429 is backpressure doing its job
					// (SLO shedding or a saturated queue), not an error.
					mu.Lock()
					shed++
					mu.Unlock()
					continue
				}
				if err != nil || (status != http.StatusOK && status != http.StatusAccepted) {
					mu.Lock()
					errs++
					mu.Unlock()
					continue
				}
				if jv.State != serve.StateDone && jv.State != serve.StateFailed {
					jv, err = c.WaitJob(jv.ID, 60*time.Second)
				}
				if err != nil || jv.State != serve.StateDone {
					mu.Lock()
					errs++
					mu.Unlock()
					continue
				}
				latencies[i] = time.Since(t0).Nanoseconds()
			}
		}()
	}
	for i := 0; i < cfg.Jobs; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)

	after, err := c.Metrics()
	if err != nil {
		return nil, err
	}

	ok := latencies[:0]
	for _, l := range latencies {
		if l > 0 {
			ok = append(ok, l)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
	cs := c.Stats.View()
	res := &LoadGenResult{
		Workload:        cfg.Workload(),
		Jobs:            len(ok),
		Errors:          int(errs),
		Retried429:      int(cs.Exhausted429),
		WallNs:          wall.Nanoseconds(),
		Shed:            int(shed),
		Retries:         cs.Retries,
		Recovered:       cs.Recovered,
		RetrySuccessPct: cs.RetrySuccessPct,
	}
	if cfg.Jobs > 0 {
		res.ShedRatePct = 100 * float64(shed) / float64(cfg.Jobs)
	}
	if len(ok) > 0 {
		var sum int64
		for _, l := range ok {
			sum += l
		}
		res.MeanNs = sum / int64(len(ok))
		res.P50Ns = percentile(ok, 50)
		res.P90Ns = percentile(ok, 90)
		res.P99Ns = percentile(ok, 99)
		res.JobsPerSec = float64(len(ok)) / wall.Seconds()
	}
	res.CacheHits = after.Metrics.Counters[serve.MetricCacheHits] - before.Metrics.Counters[serve.MetricCacheHits]
	res.CacheMisses = after.Metrics.Counters[serve.MetricCacheMisses] - before.Metrics.Counters[serve.MetricCacheMisses]
	if total := res.CacheHits + res.CacheMisses; total > 0 {
		res.HitRatePct = 100 * float64(res.CacheHits) / float64(total)
	}
	delta := func(name string) int64 {
		return after.Metrics.Counters[name] - before.Metrics.Counters[name]
	}
	res.ServerSheds = delta(serve.MetricJobsShed)
	after429, after503, afterDelays := chaos.counts()
	res.Chaos429, res.Chaos503, res.ChaosDelays = after429-chaos429, after503-chaos503, afterDelays-chaosDelays
	res.KernelRuns = delta(serve.MetricKernelRuns)
	res.KernelJobs = delta(serve.MetricKernelJobs)
	res.JobsBatched = delta(serve.MetricJobsBatched)
	res.PressureBatched = delta(serve.MetricJobsPressureBatched)
	fillBreakdown(res, c, logf)
	logf("replayed %d jobs in %v: %.1f jobs/s, p50 %v, p99 %v, cache hit rate %.1f%%, %d shed, %d retries (%.1f%% recovered), %d errors",
		res.Jobs, wall.Round(time.Millisecond), res.JobsPerSec,
		time.Duration(res.P50Ns).Round(time.Microsecond),
		time.Duration(res.P99Ns).Round(time.Microsecond), res.HitRatePct,
		res.Shed, res.Retries, res.RetrySuccessPct, res.Errors)
	return res, nil
}

// percentile returns the p-th percentile of sorted (nearest-rank).
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}
