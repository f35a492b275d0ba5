package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a --trace 0 run prints, on every workload.
// jobs_per_s and job_p*_ms count the requests the workload's main client
// waits on: one subgraph.Detect call on detect, one job on serve, one
// watched delta on evolve (its answer is the child graph and the watched
// count).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
}

// arms are the algorithms subgraph.Detect dispatches to.
var arms = []string{
	"tree-color-coding",
	"triangle-neighbor-exchange",
	"triangle-degree-split",
	"even-cycle-sublinear",
	"cycle-linear",
	"clique-linear",
	"edge-collection",
}

// perLayer are the metrics a --trace 1 run prints, on every workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Workload-level values that apply to one workload only, and the
		// accounting of op time across layers.
		{"detect_pass_s", "s"},
		{"delta_p50_ms", "ms"},
		{"delta_p90_ms", "ms"},
		{"deltas_per_s", "1/s"},
		{"read_p50_ms", "ms"},
		{"read_p99_ms", "ms"},
		{"reads_per_s", "1/s"},
		{"failed_pct", "%"},
		{"ops.wall_ms", "ms"},
		{"unexplained_pct", "%"},
		{"trace_overhead_pct", "%"},

		{"graph.parse_ms", "ms"},
		{"graph.digest_ms", "ms"},
		{"graph.apply_delta_ms", "ms"},
		{"graph.bitadj_build_ms", "ms"},
		{"graph.pushed_bytes", "bytes"},
		{"graph.calls", "count"},
		{"graph.self_ms", "ms"},

		{"kernel.count_ms", "ms"},
		{"kernel.count_delta_ms", "ms"},
		{"kernel.calls", "count"},
		{"kernel.self_ms", "ms"},

		{"congest.rounds", "count"},
		{"congest.messages", "count"},
		{"congest.bits", "bits"},
		{"congest.deliver_ms", "ms"},
		{"congest.deliver_ns_per_round", "ns"},
		{"congest.setup_ms", "ms"},
		{"congest.teardown_ms", "ms"},
		{"congest.worker_utilization", "ratio"},
		{"congest.self_ms", "ms"},
	}
	for _, a := range arms {
		defs = append(defs,
			metricDef{"core." + a + ".detect_ms", "ms"},
			metricDef{"core." + a + ".compute_ms", "ms"},
			metricDef{"core." + a + ".allocs", "count"},
			metricDef{"core." + a + ".share_pct", "%"},
		)
	}
	defs = append(defs,
		metricDef{"core.self_ms", "ms"},

		metricDef{"subgraph.unexplained_ms", "ms"},
		metricDef{"subgraph.trace_overhead_pct", "%"},
		metricDef{"subgraph.self_ms", "ms"},

		metricDef{"serve.submit_p50_ms", "ms"},
		metricDef{"serve.submit_p99_ms", "ms"},
		metricDef{"serve.wait_p50_ms", "ms"},
		metricDef{"serve.wait_p99_ms", "ms"},
		metricDef{"serve.polls_per_job", "count"},
		metricDef{"serve.jobs_waited", "count"},
		metricDef{"serve.cache_hit_pct", "%"},
		metricDef{"serve.cache_lookups", "count"},
		metricDef{"serve.coalesced", "count"},
		metricDef{"serve.queue_wait_p50_ms", "ms"},
		metricDef{"serve.queue_wait_p99_ms", "ms"},
		metricDef{"serve.engine_run_p50_ms", "ms"},
		metricDef{"serve.engine_run_p99_ms", "ms"},
		metricDef{"serve.kernel_run_p50_ms", "ms"},
		metricDef{"serve.jobs_batched", "count"},
		metricDef{"serve.detect_runs", "count"},
		metricDef{"serve.refused", "count"},
		metricDef{"serve.unexplained_pct", "%"},
		metricDef{"serve.self_ms", "ms"},

		metricDef{"cluster.submit_p50_ms", "ms"},
		metricDef{"cluster.delta_p50_ms", "ms"},
		metricDef{"cluster.cache_hit_pct", "%"},
		metricDef{"cluster.cache_lookups", "count"},
		metricDef{"cluster.graph_pushes", "count"},
		metricDef{"cluster.delta_seeded", "count"},
		metricDef{"cluster.redispatched", "count"},
		metricDef{"cluster.unexplained_pct", "%"},
		metricDef{"cluster.self_ms", "ms"},
	)
	return defs
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// descriptor identifies the machine and the workload a report came from.
type descriptor struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	Commit     string         `json:"commit"`
	Params     map[string]any `json:"params"`
}

// result is everything one run measured.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	desc     descriptor
	values   map[string]float64 // every metric the workload measured
	exact    map[string]string  // exact outputs that must repeat for a seed
	problems []string           // wrong answers, for the log
	spans    *recorder
	cpu0     []int64 // /proc/stat cpu times when the run started
}

func newResult(opts options) *result {
	return &result{
		Correct: true,
		desc: descriptor{
			Workload:   opts.workload,
			Seed:       opts.seed,
			Seconds:    opts.seconds,
			Trace:      opts.trace,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPUModel:   cpuModel(),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			Commit:     commit(),
			Params:     map[string]any{},
		},
		values: map[string]float64{},
		exact:  map[string]string{},
		cpu0:   cpuTimes(),
	}
}

// set records a measured metric.
func (r *result) set(name string, v float64) { r.values[name] = v }

// wrong records a wrong answer: it counts as a failed op and fails the run.
func (r *result) wrong(format string, args ...any) {
	r.Failed++
	r.Correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// finish fills the metrics the result prints from the measured values.
func (r *result) finish(opts options, elapsed time.Duration) {
	if _, ok := r.values["rss_peak_mb"]; !ok {
		r.set("rss_peak_mb", rssPeakMB())
	}
	if r.Attempted > 0 {
		r.set("failed_pct", 100*float64(r.Failed)/float64(r.Attempted))
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		r.wrong("no op was attempted")
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := r.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	r.desc.Params["run_wall_s"] = elapsed.Seconds()
	// On a virtual machine the time the host gave to others shows as
	// steal; a run with much of it is slow for reasons outside the code.
	if t := cpuTimes(); len(t) > 7 && len(r.cpu0) == len(t) {
		var total int64
		for i := range t {
			total += t[i] - r.cpu0[i]
		}
		if total > 0 {
			r.desc.Params["host_steal_pct"] = 100 * float64(t[7]-r.cpu0[7]) / float64(total)
		}
	}
}

// print writes the log and the descriptor, then the result as the last
// line of w.
func (r *result) print(w, log io.Writer) error {
	for _, p := range r.problems {
		fmt.Fprintln(log, "WRONG:", p)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(log, "%-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	desc, err := json.Marshal(map[string]any{"descriptor": r.desc, "exact": r.exact})
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", desc, line)
	return err
}

// writeFiles writes the full report and the spans under opts.outDir.
func (r *result) writeFiles(opts options) error {
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(opts.outDir, fmt.Sprintf("%s-seed%d-trace%d", opts.workload, opts.seed, b2i(opts.trace)))
	all := make(map[string]metricValue, len(r.values))
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	for n, v := range r.values {
		all[n] = metricValue{Value: v, Unit: units[n]}
	}
	report := map[string]any{
		"descriptor": r.desc,
		"correct":    r.Correct,
		"attempted":  r.Attempted,
		"failed":     r.Failed,
		"problems":   r.problems,
		"exact":      r.exact,
		"metrics":    all,
	}
	if err := writeJSON(stem+".json", report); err != nil {
		return err
	}
	if r.spans == nil {
		return nil
	}
	return r.spans.writeJSONL(stem + ".spans.jsonl")
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of xs (sorted in
// place), or 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// setupRuns is how many times a run sets its workload up; setup_s is the
// median of their times.
const setupRuns = 5

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rssPeakMB reads the process's peak resident set size.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTimes reads the machine's summed CPU times from /proc/stat: user,
// nice, system, idle, iowait, irq, softirq, steal, ...
func cpuTimes() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 2 || f[0] != "cpu" {
		return nil
	}
	t := make([]int64, 0, len(f)-1)
	for _, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return nil
		}
		t = append(t, v)
	}
	return t
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, if it was built
// inside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev == "" {
		return "unknown"
	}
	if modified == "true" {
		rev += "+dirty"
	}
	return rev
}

// fingerprint abbreviates a long exact value.
func fingerprint(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}
