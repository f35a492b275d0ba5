// Command subgraphd is the long-running detection-job daemon: it serves
// the subgraph-detection HTTP/JSON API (graph uploads, job submission,
// result polling, traces, metrics) on a bounded worker budget with a
// content-addressed graph store and an LRU result cache.
//
// Modes:
//
//	subgraphd -listen :8080                        # serve until SIGTERM
//	subgraphd -router -members http://w1,http://w2 # cluster router over a worker fleet
//
// Load generation, the churn workload and the end-to-end self-check run
// from the separate cmd/subgraphload binary.
//
// On SIGTERM/SIGINT the daemon stops admitting jobs (503), finishes the
// queued and in-flight ones, prints a drain summary, and exits 0. A
// router drains by resolving every admitted job against its workers.
package main

import (
	"context"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"subgraph/internal/canary"
	"subgraph/internal/cluster"
	"subgraph/internal/obs"
	"subgraph/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen       = flag.String("listen", "127.0.0.1:8080", "address to serve on (use :0 for an ephemeral port)")
		portFile     = flag.String("portfile", "", "write the bound address to this file once listening (for scripts)")
		workers      = flag.Int("workers", 2, "worker goroutines executing jobs")
		queue        = flag.Int("queue", 64, "admission queue depth (a full queue answers 429)")
		cacheSize    = flag.Int("cache", 512, "result cache entries (0 or negative disables caching)")
		maxGraphs    = flag.Int("max-graphs", 128, "graphs retained in the content-addressed store (LRU)")
		maxDeadline  = flag.Duration("max-deadline", 60*time.Second, "per-job wall-clock deadline cap")
		deltaChurn   = flag.Float64("delta-churn", 0, "churn-ratio threshold (changes/edges) at or under which deltas maintain results incrementally; 0 means the default 0.05, negative disables incremental maintenance")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "how long SIGTERM waits for in-flight jobs")

		router      = flag.Bool("router", false, "router mode: front a static worker fleet with digest routing, a shared result cache, and cluster admission control (requires -members)")
		members     = flag.String("members", "", "router: comma-separated worker base URLs (falls back to env SUBGRAPHD_MEMBERS)")
		replication = flag.Int("replication", 2, "router: how many workers own each graph digest")
		nodeName    = flag.String("node-name", "", "node name reported by /healthz and as the node= label on /metrics?format=prom")
		maxInflight = flag.Int("max-inflight", 256, "router: cluster-wide in-flight job bound (429 beyond it)")

		canaryFrac = flag.Float64("canary", 0, "fraction of completed jobs asynchronously re-checked through a second engine (+ ground truth on small instances); 0 disables")
		canaryDir  = flag.String("canary-artifacts", ".", "directory for shrunk canary divergence artifacts (replayable with cmd/diffcheck -replay)")
		sloP99     = flag.Duration("slo-p99", 0, "p99 job-latency budget; breaching it sheds low-priority jobs with 429 + Retry-After (0 disables the SLO guard)")
		sloQWait   = flag.Duration("slo-queue-wait", 0, "p99 queue-wait budget feeding the same SLO guard (0 disables)")
		sloWindow  = flag.Duration("slo-window", 30*time.Second, "rolling window the SLO percentiles are computed over")

		flightSize = flag.Int("flight", 256, "completed-job span timelines kept for GET /debug/jobs (negative disables the flight recorder)")
	)
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("app", "subgraphd")

	// The flag's 0 means "disable caching"; Config's zero value means
	// "take the 512 default" (struct zero values cannot tell unset from
	// an explicit 0), so an operator's -cache 0 is translated to the
	// Config's negative disable sentinel rather than silently becoming
	// the default.
	effCache := *cacheSize
	if effCache <= 0 {
		effCache = -1
	}
	reg := obs.NewRegistry()
	slo := serve.SLOConfig{
		LatencyBudget:   *sloP99,
		QueueWaitBudget: *sloQWait,
		Window:          *sloWindow,
	}

	if *router {
		memberList := splitMembers(*members)
		if len(memberList) == 0 {
			memberList = splitMembers(os.Getenv("SUBGRAPHD_MEMBERS"))
		}
		if len(memberList) == 0 {
			logger.Error("router mode needs workers: set -members or SUBGRAPHD_MEMBERS")
			return 2
		}
		return runRouter(logger, cluster.Config{
			Members:            memberList,
			Replication:        *replication,
			NodeName:           *nodeName,
			MaxInflight:        *maxInflight,
			CacheSize:          effCache,
			MaxGraphs:          *maxGraphs,
			Registry:           reg,
			SLO:                slo,
			FlightRecorderSize: *flightSize,
			Logger:             logger,
		}, *listen, *portFile, *drainTimeout)
	}

	cfg := serve.Config{
		Workers:             *workers,
		QueueDepth:          *queue,
		CacheSize:           effCache,
		MaxGraphs:           *maxGraphs,
		MaxJobDeadline:      *maxDeadline,
		DeltaChurnThreshold: *deltaChurn, // 0 → serve's 0.05 default, negative → disabled
		Registry:            reg,
		SLO:                 slo,
		FlightRecorderSize:  *flightSize,
		Logger:              logger,
		NodeName:            *nodeName,
	}
	// The canary shares the server's registry and taps completed jobs via
	// OnJobDone.
	var cn *canary.Canary
	if *canaryFrac > 0 {
		cn = canary.New(canary.Config{
			Fraction:    *canaryFrac,
			Seed:        1,
			ArtifactDir: *canaryDir,
			Registry:    reg,
			Logger:      logger.With("component", "canary"),
		})
		cfg.OnJobDone = cn.OnJobDone
	}
	return runServe(logger, cfg, *listen, *portFile, *drainTimeout, cn)
}

// splitMembers parses a comma-separated member list, trimming whitespace
// and dropping empty entries ("a, b,," -> ["a","b"]).
func splitMembers(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if m := strings.TrimSpace(part); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// daemon is one serving node as serveUntilSignal runs it.
type daemon struct {
	handler http.Handler
	// started and attrs announce the bound node; draining is logged on
	// the stop signal.
	started  string
	attrs    []any
	draining string
	// drain finishes the admitted work; summary attributes go on the
	// drain log line.
	drain func(context.Context) (summary []any, err error)
}

// serveUntilSignal listens on listen (writing the bound address to
// portFile when set), serves d until SIGTERM/SIGINT, then drains it with
// the listener still up, so clients can poll the jobs they already own,
// and shuts the listener down. It returns the exit code.
func serveUntilSignal(logger *slog.Logger, d daemon, listen, portFile string, drainTimeout time.Duration) int {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		logger.Error("listen", "addr", listen, "err", err)
		return 1
	}
	if portFile != "" {
		if err := os.WriteFile(portFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			logger.Error("writing portfile", "err", err)
			return 1
		}
	}
	hs := &http.Server{Handler: d.handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logger.Info(d.started, append([]any{"url", "http://" + ln.Addr().String()}, d.attrs...)...)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case sig := <-sigc:
		logger.Info(d.draining, "signal", sig.String())
	case err := <-errc:
		logger.Error("http server", "err", err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	summary, derr := d.drain(ctx)
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	_ = hs.Shutdown(sctx)
	if derr != nil {
		logger.Error("drain", append([]any{"err", derr}, summary...)...)
		return 1
	}
	logger.Info("drained cleanly", summary...)
	return 0
}

// runRouter fronts a static worker fleet until SIGTERM/SIGINT, then
// resolves every admitted job against the workers and exits.
func runRouter(logger *slog.Logger, cfg cluster.Config, listen, portFile string, drainTimeout time.Duration) int {
	rt, err := cluster.New(cfg)
	if err != nil {
		logger.Error("router config", "err", err)
		return 1
	}
	rt.Start()
	return serveUntilSignal(logger, daemon{
		handler: rt.Handler(),
		started: "routing",
		attrs: []any{"members", len(cfg.Members), "replication", cfg.Replication,
			"max_inflight", cfg.MaxInflight},
		draining: "draining on signal (admitted jobs resolve against workers, new submissions get 503)",
		drain:    func(ctx context.Context) ([]any, error) { return nil, rt.Drain(ctx) },
	}, listen, portFile, drainTimeout)
}

// runServe serves the API until SIGTERM/SIGINT, then drains, reports the
// canary's verdict when one is tapping, and exits.
func runServe(logger *slog.Logger, cfg serve.Config, listen, portFile string, drainTimeout time.Duration, cn *canary.Canary) int {
	srv := serve.New(cfg)
	srv.Start()
	code := serveUntilSignal(logger, daemon{
		handler:  srv.Handler(),
		started:  "serving",
		attrs:    []any{"workers", cfg.Workers, "queue", cfg.QueueDepth, "cache", cfg.CacheSize},
		draining: "draining on signal (in-flight and queued jobs keep running, new submissions get 503)",
		drain: func(ctx context.Context) ([]any, error) {
			completed, err := srv.Drain(ctx)
			return []any{"jobs_completed", completed}, err
		},
	}, listen, portFile, drainTimeout)
	if code == 0 && cn != nil {
		if _, divergences := cn.Finish(logger); divergences > 0 {
			return 1
		}
	}
	return code
}
