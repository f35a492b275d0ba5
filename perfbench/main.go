// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the library and the serving stack, checks every answer
// outside the timed window, and prints one JSON result line:
//
//	perfbench --workload detect|serve|evolve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no benchmark-side tracing. With --trace 1 the run measures half its time
// untraced and half traced, and the result carries the per-layer metrics.
// README.md defines the workloads and every metric. The run also writes
// its machine and workload descriptor, every metric it measured and the
// recorded spans to .bench_out/ under the working directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	scale    float64 // shrinks workload sizes; 1 is the benchmark, the smoke test uses less
	// wrongExpected corrupts the first expected answer the correctness
	// check compares against, so a test can see the check fail.
	wrongExpected bool
}

// workloadFunc runs one workload and fills in the result.
type workloadFunc func(opts options, res *result) error

var workloads = map[string]workloadFunc{
	"detect": runDetect,
	"serve":  runServe,
	"evolve": runEvolve,
}

func main() {
	opts, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: detect, serve or evolve")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are drawn from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&o.outDir, "out", ".bench_out", "directory the run report and spans are written to")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.scale = 1
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want detect, serve or evolve)", o.workload)
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// run executes the selected workload and assembles its result.
func run(opts options) (*result, error) {
	res := newResult(opts)
	start := time.Now()
	if err := workloads[opts.workload](opts, res); err != nil {
		return nil, fmt.Errorf("%s: %w", opts.workload, err)
	}
	res.finish(opts, time.Since(start))
	if opts.outDir != "" {
		if err := res.writeFiles(opts); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
