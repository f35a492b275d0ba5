package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"time"

	"subgraph"
	"subgraph/internal/graph"
)

// The detect workload: the library path alone. One pass is a fixed list
// of subgraph.Detect calls covering every dispatch arm; every instance
// runs on the sequential engine, and the tree and cycle-linear instances
// also run on the parallel engine.

// instance is one Detect call of the pass.
type instance struct {
	label    string // pattern and engine, for messages
	arm      string // the algorithm Detect must dispatch to
	exact    bool   // exact arms must equal the ground truth; randomized arms must not report a false positive
	g, h     *graph.Graph
	nw       *subgraph.Network
	seed     int64
	parallel bool
	truth    bool
}

// detectSetup builds the pass: the instance graphs, their networks and
// the ground truth. checkPass checks that each instance reaches its arm.
func detectSetup(seed int64, scale float64) []*instance {
	rng := rand.New(rand.NewSource(seed))
	sz := func(n int) int { return max(12, int(float64(n)*scale)) }
	// Fixed edge counts keep an instance's cost the same across seeds.
	gnp := func(n int, deg float64) *graph.Graph { return graph.GNM(n, int(deg*float64(n)/2), rng) }
	k4e := graph.NewBuilder(4)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		k4e.AddEdge(e[0], e[1])
	}

	type spec struct {
		pattern  string
		h        *graph.Graph
		arm      string
		exact    bool
		both     bool // also on the parallel engine
		generate func() *graph.Graph
	}
	// Sizes order the 13 calls by cost so that the median call is the
	// sequential n=100 star:3 and the slowest is the sequential n=300
	// path:4: the percentiles then do not hinge on both cores being free,
	// which the parallel engine needs and a shared host does not promise.
	specs := []spec{
		{"path:4", graph.Path(4), "tree-color-coding", false, true,
			func() *graph.Graph { return gnp(sz(150), 1.2) }},
		{"star:3", graph.Star(3), "tree-color-coding", false, true,
			func() *graph.Graph { return gnp(sz(100), 1.2) }},
		{"path:4", graph.Path(4), "tree-color-coding", false, false,
			func() *graph.Graph { return gnp(sz(300), 1.2) }},
		{"star:3", graph.Star(3), "tree-color-coding", false, false,
			func() *graph.Graph { return gnp(sz(300), 1.2) }},
		{"triangle", graph.Cycle(3), "triangle-neighbor-exchange", true, false,
			func() *graph.Graph { return gnp(sz(300), 6) }},
		{"triangle", graph.Cycle(3), "triangle-degree-split", true, false,
			func() *graph.Graph { return hubGraph(sz(300), rng) }},
		{"cycle:4", graph.Cycle(4), "even-cycle-sublinear", false, false,
			func() *graph.Graph { g, _ := graph.PlantCycle(gnp(sz(300), 2), 4, rng); return g }},
		{"cycle:5", graph.Cycle(5), "cycle-linear", false, true,
			func() *graph.Graph { g, _ := graph.PlantCycle(gnp(16, 1.5), 5, rng); return g }},
		{"clique:4", graph.Complete(4), "clique-linear", true, false,
			func() *graph.Graph { g, _ := graph.PlantClique(gnp(sz(150), 3), 4, rng); return g }},
		{"k4-minus-edge", k4e.Build(), "edge-collection", true, false,
			func() *graph.Graph { g, _ := graph.PlantClique(gnp(sz(60), 3), 4, rng); return g }},
	}
	var pass []*instance
	var parallel []*instance
	for i, s := range specs {
		g := s.generate()
		in := &instance{
			label: s.pattern + "/seq", arm: s.arm, exact: s.exact, g: g, h: s.h,
			nw: subgraph.NewNetwork(g), seed: seed*131 + int64(i), truth: graph.ContainsSubgraph(s.h, g),
		}
		pass = append(pass, in)
		if s.both {
			p := *in
			p.label, p.parallel = s.pattern+"/par", true
			parallel = append(parallel, &p)
		}
	}
	return append(pass, parallel...)
}

// hubGraph is a hub adjacent to every other vertex plus a sparse random
// graph on the rest: Δ² > 2m, so triangles go to the degree-split arm.
func hubGraph(n int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	for _, e := range graph.GNM(n-1, n/2, rng).Edges() {
		b.AddEdge(e[0]+1, e[1]+1)
	}
	return b.Build()
}

// call is the outcome of one Detect call.
type call struct {
	rep  *subgraph.Report
	err  error
	wall time.Duration
}

func detectOnce(in *instance, trace subgraph.Tracer) call {
	t0 := time.Now()
	rep, err := subgraph.Detect(in.nw, in.h, subgraph.Options{Seed: in.seed, Parallel: in.parallel, Trace: trace})
	return call{rep: rep, err: err, wall: time.Since(t0)}
}

func runDetect(opts options, res *result) error {
	var pass []*instance
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		p := detectSetup(opts.seed, opts.scale)
		for _, in := range p { // warm-up pass
			detectOnce(in, nil)
		}
		setups = append(setups, time.Since(t0).Seconds())
		pass = p
	}
	res.set("setup_s", median(setups))
	labels := make([]string, len(pass))
	var digests strings.Builder
	for i, in := range pass {
		labels[i] = fmt.Sprintf("%s n=%d m=%d", in.label, in.g.N(), in.g.M())
		if !in.parallel {
			digests.WriteString(in.g.Digest())
		}
	}
	res.desc.Params["pass"] = labels
	res.exact["graph_digests"] = fingerprint(digests.String())

	measured := opts.seconds
	if opts.trace {
		measured /= 2
	}
	ref := make([]call, len(pass))
	var lat, passes []float64
	deadline := time.Now().Add(seconds(measured))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		for i, in := range pass {
			c := detectOnce(in, nil)
			res.Attempted++
			lat = append(lat, ms(c.wall))
			if n == 0 {
				ref[i] = c
			} else {
				checkRepeat(res, in, ref[i], c)
			}
		}
		passes = append(passes, time.Since(t0).Seconds())
	}
	res.set("rss_peak_mb", rssPeakMB())
	elapsed := sum(passes)
	checkPass(res, pass, ref, opts.wrongExpected)
	res.set("jobs_per_s", float64(len(lat))/elapsed)
	res.set("job_p50_ms", percentile(lat, 50))
	res.set("job_p99_ms", percentile(lat, 99))
	res.set("detect_pass_s", median(passes))
	res.desc.Params["passes"] = len(passes)
	res.desc.Params["calls"] = len(lat)

	var rounds, msgs, bits int64
	for _, c := range ref {
		if c.rep != nil {
			rounds += int64(c.rep.Stats.Rounds)
			msgs += c.rep.Stats.TotalMessages
			bits += c.rep.Stats.TotalBits
		}
	}
	res.exact["congest_rounds"] = fmt.Sprint(rounds)
	res.exact["congest_messages"] = fmt.Sprint(msgs)
	res.exact["congest_bits"] = fmt.Sprint(bits)
	if !opts.trace {
		return nil
	}
	res.set("congest.rounds", float64(rounds))
	res.set("congest.messages", float64(msgs))
	res.set("congest.bits", float64(bits))
	setSamples(res, map[string][]float64{"graph.digest_ms": digestTimes(pass)})
	return detectTraced(opts, res, pass, ref, passes)
}

// detectTraced measures allocations in one pass, then repeats passes with
// a Collector and the phase clock as the Tracer for the rest of the run.
func detectTraced(opts options, res *result, pass []*instance, ref []call, untraced []float64) error {
	allocs := make([]uint64, len(pass))
	var ms0, ms1 runtime.MemStats
	for i, in := range pass {
		runtime.ReadMemStats(&ms0)
		detectOnce(in, nil)
		runtime.ReadMemStats(&ms1)
		allocs[i] = ms1.Mallocs - ms0.Mallocs
	}

	rec := newRecorder()
	res.spans = rec
	type armTimes struct{ detect, compute []float64 }
	perArm := map[string]*armTimes{}
	for _, a := range arms {
		perArm[a] = &armTimes{}
	}
	var passes, unexplained []float64
	var clocks []*phaseClock
	deadline := time.Now().Add(seconds(opts.seconds / 2))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		req := rec.id()
		armDetect, armCompute := map[string]float64{}, map[string]float64{}
		unexpl := 0.0
		d := rec.call(req, 0, layerOp, "detect_pass", func(root int64) {
			for i, in := range pass {
				col := subgraph.NewCollector()
				pc := &phaseClock{rec: rec, req: req}
				var c call
				rec.call(req, root, layerSubgraph, "subgraph.Detect "+in.label, func(id int64) {
					pc.parent = id
					c = detectOnce(in, subgraph.MultiTracer(col, pc))
				})
				res.Attempted++
				checkRepeat(res, in, ref[i], c)
				checkCollector(res, in, col, c)
				clocks = append(clocks, pc)
				armDetect[in.arm] += ms(c.wall)
				armCompute[in.arm] += float64(pc.computeNs) / 1e6
				unexpl += ms(c.wall) - float64(pc.phaseNs)/1e6
			}
		})
		passes = append(passes, d.Seconds())
		unexplained = append(unexplained, unexpl)
		for a, v := range armDetect {
			perArm[a].detect = append(perArm[a].detect, v)
			perArm[a].compute = append(perArm[a].compute, armCompute[a])
		}
	}

	passMs := median(passes) * 1000
	for _, a := range arms {
		t := perArm[a]
		res.set("core."+a+".detect_ms", median(t.detect))
		res.set("core."+a+".compute_ms", median(t.compute))
		if passMs > 0 {
			res.set("core."+a+".share_pct", 100*median(t.detect)/passMs)
		}
	}
	for i, in := range pass {
		res.values["core."+in.arm+".allocs"] += float64(allocs[i])
	}
	var rounds, deliver, setup, teardown int64
	var util float64
	var utilRounds int64
	for _, pc := range clocks {
		rounds += pc.rounds
		deliver += pc.deliverNs
		setup += pc.setupNs
		teardown += pc.teardownNs
		util += pc.utilSum
		utilRounds += pc.utilRounds
	}
	np := float64(len(passes))
	res.set("congest.deliver_ms", float64(deliver)/1e6/np)
	res.set("congest.setup_ms", float64(setup)/1e6/np)
	res.set("congest.teardown_ms", float64(teardown)/1e6/np)
	if rounds > 0 {
		res.set("congest.deliver_ns_per_round", float64(deliver)/float64(rounds))
	}
	if utilRounds > 0 {
		res.set("congest.worker_utilization", util/float64(utilRounds))
	}
	res.set("subgraph.unexplained_ms", mean(unexplained))
	overhead := 100 * (median(passes)/median(untraced) - 1)
	res.set("subgraph.trace_overhead_pct", overhead)
	res.set("trace_overhead_pct", overhead)
	res.setAccounting(account(rec.snapshot()))
	return nil
}

// checkPass checks the first pass against the ground truth and the two
// engines against each other.
func checkPass(res *result, pass []*instance, ref []call, wrongExpected bool) {
	seq := map[string]call{}
	for i, in := range pass {
		c := ref[i]
		truth := in.truth
		// The hook flips an exact arm's truth, so the check it trips does
		// not hinge on a randomized arm's outcome.
		if wrongExpected && in.arm == "triangle-neighbor-exchange" {
			truth = !truth
		}
		switch {
		case c.err != nil:
			res.wrong("%s: %v", in.label, c.err)
			continue
		case c.rep.Algorithm != in.arm:
			res.wrong("%s: dispatched to %s, want %s", in.label, c.rep.Algorithm, in.arm)
		case in.exact && c.rep.Detected != truth:
			res.wrong("%s (%s): detected=%v, ground truth %v", in.label, in.arm, c.rep.Detected, truth)
		case !in.exact && c.rep.Detected && !truth:
			res.wrong("%s (%s): false positive", in.label, in.arm)
		}
		key := in.arm + "|" + in.g.Digest() + "|" + in.h.Digest()
		if !in.parallel {
			seq[key] = c
		} else if s, ok := seq[key]; ok && s.rep != nil {
			if s.rep.Detected != c.rep.Detected || !reflect.DeepEqual(s.rep.Stats, c.rep.Stats) {
				res.wrong("%s: parallel engine Stats differ from the sequential engine's", in.label)
			}
		}
	}
}

// checkRepeat checks that a later call repeats the first pass's answer.
func checkRepeat(res *result, in *instance, ref, c call) {
	switch {
	case c.err != nil:
		res.wrong("%s: %v", in.label, c.err)
	case ref.rep == nil:
	case c.rep.Detected != ref.rep.Detected || c.rep.Rounds != ref.rep.Rounds ||
		c.rep.Stats.TotalBits != ref.rep.Stats.TotalBits || c.rep.Stats.TotalMessages != ref.rep.Stats.TotalMessages:
		res.wrong("%s: call differs from the first pass (rounds %d vs %d)", in.label, c.rep.Rounds, ref.rep.Rounds)
	}
}

// checkCollector checks the Collector's counters against the returned
// Stats: the instrumentation must count exactly what the engine did.
func checkCollector(res *result, in *instance, col *subgraph.Collector, c call) {
	if c.rep == nil {
		return
	}
	cnt := col.Report().Metrics.Counters
	if cnt["rounds_total"] != int64(c.rep.Stats.Rounds) || cnt["bits_total"] != c.rep.Stats.TotalBits ||
		cnt["messages_total"] != c.rep.Stats.TotalMessages {
		res.wrong("%s: collector counters %v disagree with Stats", in.label, cnt)
	}
}

// digestTimes times graph.Digest on each of the pass's graphs.
func digestTimes(pass []*instance) []float64 {
	var xs []float64
	for _, in := range pass {
		t0 := time.Now()
		_ = in.g.Digest()
		xs = append(xs, ms(time.Since(t0)))
	}
	return xs
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
