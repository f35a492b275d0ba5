// Command subgraphload drives the subgraphd daemon from the outside: it
// replays a seeded job mix and reports latency percentiles, runs the
// evolving-graph churn workload, or cross-checks a running daemon end to
// end. Without -target the load runs against an in-process server (or,
// with -cluster N, an in-process router over N workers), drained before
// the run is judged.
//
// Modes:
//
//	subgraphload -jobs 500 -out r.json             # job mix (in-process server)
//	subgraphload -cluster 3                        # job mix through an in-process router + 3 workers
//	subgraphload -target http://host:8080          # job mix against a running daemon or router
//	subgraphload -churn -out r.json                # incremental-vs-scratch delta chain
//	subgraphload -selfcheck http://host:8080       # end-to-end cross-check
//
// Reports are benchreport-v1 JSON (stdout unless -out is set). The exit
// code is non-zero on any job error (beyond 1% of jobs under -chaos),
// retry success under 99% with -chaos, a canary divergence, or a failed
// drain.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"subgraph/internal/canary"
	"subgraph/internal/cluster"
	"subgraph/internal/loadtest"
	"subgraph/internal/obs"
	"subgraph/internal/serve"
)

// Settings with a single value in use.
const (
	// repeatFrac is the share of mix jobs repeating an earlier one (cache
	// exercise); every committed loadgen baseline uses it.
	repeatFrac = 0.5
	// inProcessWorkers is the worker budget of each in-process daemon.
	inProcessWorkers = 2
	// maxReplication bounds how many in-process workers own a digest.
	maxReplication = 2
	// routerCache is the in-process router's result cache, the workers'
	// default size.
	routerCache = 512
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		target    = flag.String("target", "", "base URL of a running daemon or router (default: an in-process server)")
		clusterN  = flag.Int("cluster", 0, "boot an in-process router + N workers and load-test through the router")
		jobs      = flag.Int("jobs", 200, "jobs to replay")
		seed      = flag.Int64("seed", 1, "workload seed (same seed = same mix); also seeds -chaos and the canary's sampling")
		graphN    = flag.Int("graph-n", 150, "vertices per generated topology of the job mix")
		lowFrac   = flag.Float64("low-frac", 0, "fraction of jobs submitted at low priority (the tier the SLO guard sheds first)")
		countFrac = flag.Float64("count-frac", 0, "fraction of jobs submitted in count mode (clique patterns routed to the local bitset kernel)")
		warmup    = flag.Int("warmup", 0, "unmeasured warm-up jobs replayed before the metrics snapshot (steady-state cache/kernel measurement)")
		chaos     = flag.Bool("chaos", false, "inject seeded faults (429/503/latency) on the client's /v1/ requests; grades the client's retry policy")
		out       = flag.String("out", "", "write the benchreport JSON here (default stdout)")

		churn      = flag.Bool("churn", false, "churn mode: evolve a 2000-vertex graph through a delta chain and report incremental-vs-scratch count latency")
		churnSteps = flag.Int("churn-steps", 40, "churn: delta-chain length")

		selfcheck = flag.String("selfcheck", "", "run the end-to-end self-check against this base URL and exit")
		saturate  = flag.Bool("saturate", false, "selfcheck: also assert 429 admission control (server must run -workers 1 -queue 1)")
		traceDemo = flag.Bool("trace-demo", false, "after the run, dump one recorded job timeline and the Prometheus metrics page")

		canaryFrac = flag.Float64("canary", 0, "fraction of the in-process server's completed jobs re-checked through a second engine; 0 disables")
		canaryDir  = flag.String("canary-artifacts", ".", "directory for shrunk canary divergence artifacts (replayable with cmd/diffcheck -replay)")
		sloP99     = flag.Duration("slo-p99", 0, "in-process server: p99 job-latency budget; breaching it sheds low-priority jobs (0 disables)")
	)
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("app", "subgraphload")
	// logf adapts the structured logger for the harnesses' progress hooks,
	// whose lines are already fully formatted.
	logf := func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) }

	// The canary taps an in-process server's completed jobs.
	if *canaryFrac > 0 && (*selfcheck != "" || *target != "") {
		logger.Error("-canary needs the server in-process (drop -target / -selfcheck)")
		return 2
	}
	if *clusterN > 0 && (*target != "" || *canaryFrac > 0) {
		logger.Error("-cluster boots its own in-process topology; drop -target / -canary")
		return 2
	}
	if *selfcheck != "" {
		if err := loadtest.SelfCheck(*selfcheck, loadtest.SelfCheckOptions{Saturate: *saturate, Logf: logf}); err != nil {
			logger.Error("selfcheck FAILED", "err", err)
			return 1
		}
		logger.Info("selfcheck passed")
		return 0
	}

	reg := obs.NewRegistry()
	cfg := serve.Config{
		Workers:  inProcessWorkers,
		Registry: reg,
		SLO:      serve.SLOConfig{LatencyBudget: *sloP99},
		Logger:   logger,
	}
	var cn *canary.Canary
	if *canaryFrac > 0 {
		cn = canary.New(canary.Config{
			Fraction:    *canaryFrac,
			Seed:        *seed,
			ArtifactDir: *canaryDir,
			Registry:    reg,
			Logger:      logger.With("component", "canary"),
		})
		cfg.OnJobDone = cn.OnJobDone
	}

	if *churn {
		return runChurn(logger, cfg, *target, loadtest.ChurnConfig{
			Steps: *churnSteps,
			Seed:  *seed,
			Logf:  logf,
		}, *out)
	}

	// The acceptance bar for a load run is every completed job being
	// retrievable from /debug/jobs/{id}. Shed, rejected, and coalesced
	// submissions record timelines too — under chaos each job may retry
	// several times — so size the ring for total submissions, not jobs.
	cfg.FlightRecorderSize = max(256, *jobs*8)
	lg := loadtest.LoadGenConfig{
		Jobs:                *jobs,
		Seed:                *seed,
		GraphN:              *graphN,
		RepeatFraction:      repeatFrac,
		LowPriorityFraction: *lowFrac,
		CountFraction:       *countFrac,
		Warmup:              *warmup,
		Logf:                logf,
	}
	if *chaos {
		lg.Chaos = &loadtest.ChaosConfig{
			Seed:        *seed,
			Reject429:   0.10,
			Fail503:     0.05,
			LatencyRate: 0.10,
			LatencyMax:  25 * time.Millisecond,
		}
		logger.Info("chaos injection armed", "seed", lg.Chaos.Seed,
			"reject_429_pct", 100*lg.Chaos.Reject429, "fail_503_pct", 100*lg.Chaos.Fail503,
			"delay_pct", 100*lg.Chaos.LatencyRate)
	}
	return runLoadGen(logger, cfg, *target, *clusterN, lg, cn, *traceDemo, *out)
}

// startTarget returns the base URL a run points at: remote when set,
// else a fresh in-process server, or a router over clusterN workers.
// stop drains what was started (a no-op for a remote target).
func startTarget(logger *slog.Logger, cfg serve.Config, remote string, clusterN int) (base string, stop func() error, err error) {
	const drainTimeout = 30 * time.Second
	switch {
	case remote != "":
		return remote, func() error { return nil }, nil
	case clusterN > 0:
		cl, err := cluster.StartInProcess(clusterN, cfg, cluster.Config{
			Replication:        maxReplication, // clamped to the worker count
			CacheSize:          routerCache,
			Registry:           cfg.Registry,
			SLO:                cfg.SLO,
			FlightRecorderSize: cfg.FlightRecorderSize,
			Logger:             logger.With("component", "router"),
		})
		if err != nil {
			return "", nil, fmt.Errorf("starting in-process cluster: %w", err)
		}
		logger.Info("load against in-process cluster", "url", cl.BaseURL, "nodes", clusterN,
			"workers_per_node", cfg.Workers)
		return cl.BaseURL, func() error { return cl.Close(drainTimeout) }, nil
	default:
		p, err := serve.StartInProcess(cfg)
		if err != nil {
			return "", nil, err
		}
		logger.Info("load against in-process server", "url", p.BaseURL, "workers", cfg.Workers)
		return p.BaseURL, func() error { return p.Close(drainTimeout) }, nil
	}
}

// runLoadGen replays the seeded mix and writes the benchreport JSON. A
// failed drain or any canary divergence fails the run.
func runLoadGen(logger *slog.Logger, cfg serve.Config, remote string, clusterN int, lg loadtest.LoadGenConfig, cn *canary.Canary, traceDemo bool, out string) int {
	base, stop, err := startTarget(logger, cfg, remote, clusterN)
	if err != nil {
		logger.Error("starting target", "err", err)
		return 1
	}
	lg.BaseURL = base
	if clusterN > 0 {
		lg.Nodes, lg.Replication = clusterN, min(maxReplication, clusterN)
	}
	res, err := loadtest.RunLoadGen(lg)

	// The trace demo reads /debug/jobs and /metrics?format=prom while the
	// server is still up — before the drain tears it down.
	if err == nil && traceDemo {
		if derr := runTraceDemo(base); derr != nil {
			logger.Error("trace demo", "err", derr)
			_ = stop()
			return 1
		}
	}
	// Drain before judging the run: a drain failure is a real failure
	// (jobs were lost or hung), not shutdown noise to swallow.
	if derr := stop(); derr != nil {
		logger.Error("drain after loadgen", "err", derr)
		return 1
	}
	if err != nil {
		logger.Error("loadgen", "err", err)
		return 1
	}
	if cn != nil {
		res.CanaryChecked, res.CanaryDivergences = cn.Finish(logger)
	}
	// Without chaos any error is a failure. Under injected faults the bar
	// is the acceptance criterion instead: at least 99% of retried
	// requests must recover, and errors must stay within a 1% job budget.
	if res.Errors > 0 {
		if lg.Chaos == nil || float64(res.Errors) > 0.01*float64(lg.Jobs) {
			logger.Error("loadgen jobs errored", "errors", res.Errors)
			return 1
		}
		logger.Info("loadgen jobs errored under chaos (within the 1% budget)", "errors", res.Errors)
	}
	if lg.Chaos != nil && res.RetrySuccessPct < 99 {
		logger.Error("retry success under chaos below bar",
			"retry_success_pct", res.RetrySuccessPct, "want_pct", 99)
		return 1
	}
	if res.CanaryDivergences > 0 {
		return 1
	}
	return writeReport(logger, res.BenchReport(), out)
}

// runChurn drives the evolving-graph churn workload and writes the
// benchreport JSON with the incremental-vs-scratch speedup columns.
func runChurn(logger *slog.Logger, cfg serve.Config, remote string, cc loadtest.ChurnConfig, out string) int {
	base, stop, err := startTarget(logger, cfg, remote, 0)
	if err != nil {
		logger.Error("starting target", "err", err)
		return 1
	}
	cc.BaseURL = base
	res, err := loadtest.RunChurn(cc)
	if derr := stop(); derr != nil {
		logger.Error("drain after churn", "err", derr)
		return 1
	}
	if err != nil {
		logger.Error("churn", "err", err)
		return 1
	}
	return writeReport(logger, res.BenchReport(), out)
}

// writeReport writes report as indented JSON to out (stdout when empty).
func writeReport(logger *slog.Logger, report any, out string) int {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		logger.Error("encoding report", "err", err)
		return 1
	}
	data = append(data, '\n')
	if out == "" {
		fmt.Print(string(data))
		return 0
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		logger.Error("writing report", "path", out, "err", err)
		return 1
	}
	logger.Info("wrote report", "path", out)
	return 0
}

// runTraceDemo prints one complete recorded job timeline (preferring a
// job that actually ran the engine) and the Prometheus exposition page —
// the two observability surfaces, demonstrated end to end against a
// live server.
func runTraceDemo(baseURL string) error {
	c := &serve.Client{Base: baseURL}
	dj, err := c.DebugJobs()
	if err != nil {
		return fmt.Errorf("fetching /debug/jobs: %w", err)
	}
	var pick *obs.TimelineView
	for _, tl := range dj.Timelines {
		if tl.Outcome == serve.StateDone && tl.SpanByName("engine_run") != nil {
			pick = tl
			break
		}
	}
	if pick == nil && len(dj.Timelines) > 0 {
		pick = dj.Timelines[0]
	}
	if pick == nil {
		return fmt.Errorf("flight recorder is empty (server run with -flight < 0?)")
	}
	// Re-fetch by ID: the demo exercises /debug/jobs/{id}, the lookup an
	// engineer would actually use.
	full, err := c.DebugJob(pick.TraceID)
	if err != nil {
		return fmt.Errorf("fetching /debug/jobs/%s: %w", pick.TraceID, err)
	}
	tj, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("=== job timeline (job_id=%s trace_id=%s, %d spans, total %v) ===\n%s\n",
		full.JobID, full.TraceID, len(full.Spans),
		time.Duration(full.TotalNs), tj)
	prom, err := c.MetricsProm()
	if err != nil {
		return fmt.Errorf("fetching /metrics?format=prom: %w", err)
	}
	fmt.Printf("=== /metrics?format=prom ===\n%s", prom)
	return nil
}
