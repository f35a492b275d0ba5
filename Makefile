# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race bench bench-report bench-compare bench-kernels diffcheck experiments experiments-quick examples serve smoke cluster-smoke delta-smoke loadgen-report loadgen-cluster-report chaos-report canary-smoke churn-report trace-demo clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Report targets write under $(OUT) (gitignored). The committed
# BENCH_PR*.json files are read-only history: compare against them,
# never rewrite them.
OUT ?= .bench_out

$(OUT):
	mkdir -p $(OUT)

# Re-measure the tracked engine benchmarks (run on a quiet machine; see
# README "Performance").
bench-report: | $(OUT)
	$(GO) run ./cmd/benchreport -out $(OUT)/engine.json

# Measure now and print a delta table against the committed baseline.
bench-compare:
	$(GO) run ./cmd/benchreport -compare BENCH_PR3.json

# Re-measure the kernel-vs-simulation rows (BENCH_PR8.json's workload):
# the bitset counting kernels against the per-node CONGEST simulation on
# the same seeded instances (run on a quiet machine; see README
# "Performance").
bench-kernels: | $(OUT)
	$(GO) run ./cmd/benchreport -pkg ./internal/kernel/ \
		-bench 'BenchmarkKernel|BenchmarkSim' -out $(OUT)/kernels.json

# Differential/metamorphic battery: 500 seeded random cases checked
# against every oracle, failures shrunk to replayable repro artifacts
# under diffcheck-artifacts/ (see README "Correctness").
diffcheck:
	$(GO) run ./cmd/diffcheck -cases 500 -seed 1

# Regenerate every EXPERIMENTS.md table (minutes).
experiments:
	$(GO) run ./cmd/experiments

# Smoke-scale sweep (seconds).
experiments-quick:
	$(GO) run ./cmd/experiments -quick

# Run the detection-job daemon on the default port (see README "Serving").
serve:
	$(GO) run ./cmd/subgraphd

# End-to-end daemon smoke: selfcheck (cmd/subgraphload) + queue
# saturation + SIGTERM drain.
smoke:
	./scripts/smoke_subgraphd.sh

# End-to-end cluster smoke: router + 2 workers, selfcheck through the
# router, loadgen burst with one worker SIGKILLed mid-run, clean drains.
cluster-smoke:
	$(GO) test -race -count=1 ./internal/cluster
	./scripts/smoke_cluster.sh

# End-to-end evolving-graph smoke: race-test the delta paths, then drive
# the real binary through upload → watched deltas → forwarded-cache count
# job → 409 conflict → clean drain (see README "Evolving graphs").
delta-smoke:
	$(GO) test -race -count=1 ./internal/graph ./internal/kernel ./internal/serve ./internal/loadtest
	./scripts/delta_smoke.sh

# Re-measure the evolving-graph workload (BENCH_PR10.json's): per-step
# wall time of one watched delta vs re-uploading and recounting the same
# successor from scratch (run on a quiet machine; see EXPERIMENTS.md E13).
churn-report: | $(OUT)
	$(GO) run ./cmd/subgraphload -churn -out $(OUT)/churn.json

# Re-measure the serving workload (BENCH_PR4.json's; in-process server;
# run on a quiet machine). All loadgen reports share -jobs 400 -seed 1
# and a 100-job warm-up so their cache/shed sections stay comparable;
# the mix descriptor is recorded in the report's "workload" field and
# cmd/benchreport warns when diffing reports whose mixes differ.
loadgen-report: | $(OUT)
	$(GO) run ./cmd/subgraphload -jobs 400 -seed 1 -warmup 100 \
		-out $(OUT)/loadgen.json

# Re-measure the cluster serving workload (BENCH_PR9.json's): the same
# seeded mix as loadgen-report, driven through an in-process router
# fronting three workers with replication 2 (the workload descriptor
# records nodes= and repl= so benchreport warns on cross-topology diffs).
loadgen-cluster-report: | $(OUT)
	$(GO) run ./cmd/subgraphload -cluster 3 \
		-jobs 400 -seed 1 -warmup 100 -out $(OUT)/loadgen-cluster.json

# Re-measure the robustness workload (BENCH_PR6.json's and E10's):
# seeded chaos injection, SLO load shedding, full-fraction canary, with
# the span-derived latency breakdown (see README "Robustness").
chaos-report: | $(OUT)
	$(GO) run ./cmd/subgraphload -chaos -canary 1.0 -jobs 400 -seed 1 \
		-warmup 100 -slo-p99 150ms -low-frac 0.3 -out $(OUT)/chaos.json

# Short chaos run that ends by dumping one completed job's span timeline
# (fetched back through /debug/jobs/{id}) and the Prometheus text page
# (see README "Observability").
trace-demo:
	$(GO) run ./cmd/subgraphload -chaos -jobs 40 -seed 1 \
		-trace-demo -out /dev/null

# Quick local version of CI's canary-smoke gate.
canary-smoke:
	$(GO) test -race -count=1 ./internal/obs ./internal/canary ./internal/serve ./internal/loadtest
	$(GO) run ./cmd/subgraphload -chaos -canary 1.0 -jobs 200 -seed 1 \
		-slo-p99 150ms -low-frac 0.3 -out /dev/null

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/disjointness
	$(GO) run ./examples/foolingviews
	$(GO) run ./examples/cliquelisting
	$(GO) run ./examples/cycledetect

clean:
	$(GO) clean ./...
