package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"subgraph"
	"subgraph/internal/graph"
	"subgraph/internal/kernel"
	"subgraph/internal/serve"
)

// The serve workload: one in-process serve.Server, driven by one client
// in a closed loop. (Two clients on a two-core machine make the server's
// throughput bimodal from run to run: one client's engine runs contend
// with the other's cache hits.) Graphs are n=150 random graphs with
// planted patterns. A fresh detect job takes a pattern from detectPatterns
// and a job seed no other job uses; a fresh count job carries a new inline
// graph. So fresh jobs never collide, and the cache-hit share is set by
// the mix alone. The client draws its mix from shuffled blocks holding the
// exact proportions, so runs on different seeds run the same mix.

var (
	detectPatterns = []string{"triangle", "cycle:4", "clique:4", "path:4", "star:3"}
	// The count patterns and countPer25 follow the load generator's
	// documented count mix (subgraphd -loadgen -count-frac 0.4).
	countPatterns = []string{"triangle", "clique:4", "clique:5"}
)

const (
	serveGraphs   = 12  // uploaded topologies fresh detect jobs draw from
	serveGraphN   = 150 // vertices per topology
	repeatsPer4   = 3   // of every 4 jobs, this many repeat an earlier job of the same client, so the median job is a cache hit
	countPer25    = 10  // of every 25 fresh jobs, this many are count jobs; the rest split evenly over detectPatterns
	repeatWindow  = 32  // a repeat picks one of the client's last repeatWindow fresh jobs of its kind
	warmupPerNode = 2   // warm-up jobs per uploaded graph
	flightSize    = 1 << 14
)

// deck deals cards from shuffled copies of one block, so every block's
// worth of draws holds the block's exact proportions.
type deck struct {
	rng   *rand.Rand
	block []int
	cards []int
}

func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for card, n := range counts {
		for i := 0; i < n; i++ {
			d.block = append(d.block, card)
		}
	}
	return d
}

func (d *deck) next() int {
	if len(d.cards) == 0 {
		d.cards = append(d.cards, d.block...)
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[len(d.cards)-1]
	d.cards = d.cards[:len(d.cards)-1]
	return c
}

// serveGraph is one topology of the workload, kept for verification.
type serveGraph struct {
	g      *graph.Graph // as the server parsed it
	text   string
	digest string
}

// serveEnv is a started server with its uploaded graphs.
type serveEnv struct {
	srv    *serve.InProcess
	graphs []serveGraph
	// warm sums the Stats of the warm-up jobs: a fixed set of detect
	// jobs, so the sums repeat exactly for a seed.
	warm subgraph.Stats
}

// loadgenGraph draws a topology in the load generator's shape: average
// degree 1.2 and a planted triangle, 4-cycle or 4-clique. The edge count
// is fixed, so the cost of a job varies less between seeds.
func loadgenGraph(n, i int, rng *rand.Rand) *graph.Graph {
	g := graph.GNM(n, n*6/10, rng)
	switch i % 3 {
	case 0:
		g, _ = graph.PlantClique(g, 3, rng)
	case 1:
		g, _ = graph.PlantCycle(g, 4, rng)
	default:
		g, _ = graph.PlantClique(g, 4, rng)
	}
	return g
}

func edgeList(g *graph.Graph) string {
	var b bytes.Buffer
	_ = graph.WriteEdgeList(&b, g) // writes to a bytes.Buffer cannot fail
	return b.String()
}

// serveSetup starts a server, uploads the topologies and warms the server
// up with jobs from a stream disjoint from the measured one.
func serveSetup(seed int64, scale float64, traced bool) (*serveEnv, error) {
	// Server defaults, except that the server keeps the last 512 finished
	// jobs (not 4096) and a traced run keeps every job's timeline. A run
	// finishes thousands of jobs, so with the default the finished jobs,
	// and so the peak RSS, grew with the run's throughput. The default
	// store (128 graphs, least recently used out) keeps the uploaded
	// graphs: the graph deck uses each of them at least once in every
	// 2*serveGraphs fresh detect jobs, and far fewer inline count graphs
	// arrive in between.
	cfg := serve.Config{MaxRetainedJobs: 512}
	if traced {
		cfg.FlightRecorderSize = flightSize
	}
	srv, err := serve.StartInProcess(cfg)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{srv: srv}
	rng := rand.New(rand.NewSource(seed))
	n := max(20, int(serveGraphN*scale))
	for i := 0; i < serveGraphs; i++ {
		text := edgeList(loadgenGraph(n, i, rng))
		up, err := srv.Client.UploadGraph(text)
		if err != nil {
			env.close()
			return nil, fmt.Errorf("uploading graph %d: %w", i, err)
		}
		g, err := graph.ReadEdgeList(strings.NewReader(text))
		if err != nil {
			env.close()
			return nil, err
		}
		env.graphs = append(env.graphs, serveGraph{g: g, text: text, digest: up.Digest})
	}
	// Warm-up: every graph's lazy network build, and every pattern once,
	// under job seeds the measured stream never uses.
	bc := newBenchClient(srv.BaseURL)
	defer bc.close()
	for i := 0; i < serveGraphs*warmupPerNode; i++ {
		spec := serve.JobSpec{
			Graph:   env.graphs[i%serveGraphs].digest,
			Pattern: detectPatterns[i%len(detectPatterns)],
			Options: subgraph.OptionsSpec{Seed: -1 - int64(i)},
		}
		o := bc.run(nil, spec)
		if !o.ok() {
			env.close()
			return nil, fmt.Errorf("warm-up job %d failed: status %d, %v %s", i, o.status, o.err, o.view.Error)
		}
		var st subgraph.Stats
		if err := json.Unmarshal(o.view.Result.Stats, &st); err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up job %d: decoding stats: %w", i, err)
		}
		env.warm.Rounds += st.Rounds
		env.warm.TotalMessages += st.TotalMessages
		env.warm.TotalBits += st.TotalBits
	}
	return env, nil
}

func (e *serveEnv) close() { _ = e.srv.Close(10 * time.Second) }

// serveJob is one job of a client's stream. The job's result is kept
// only as its answer, so the benchmark's own memory stays small.
type serveJob struct {
	spec    serve.JobSpec
	g       *graph.Graph // the job's topology
	fresh   int          // index of the fresh job this one repeats (itself when fresh)
	outcome jobOutcome   // with the result dropped
	done    bool         // reached state done with a result
	ans     answer
}

// finish records the outcome of the job.
func (s *serveStream) finish(j *serveJob, o jobOutcome) {
	j.done = o.ok()
	if j.done {
		j.ans = answerOf(o.view.Result)
	}
	o.view.Result = nil
	j.outcome = o
}

// serveStream draws the client's jobs and keeps them. Repeats are dealt
// evenly over the detect patterns, so the share of each kind of cache hit
// is fixed too.
type serveStream struct {
	rng        *rand.Rand
	repeat     *deck   // 1: repeat, 0: fresh
	kind       *deck   // index into detectPatterns, or len(detectPatterns) for a count job
	repeatKind *deck   // the kind a repeat repeats
	graph      *deck   // index into env.graphs
	counts     int     // count jobs drawn, to alternate countPatterns
	fresh      [][]int // per kind, indexes into jobs of fresh jobs
	jobs       []*serveJob
	env        *serveEnv
	graphN     int
	nextSeq    int64
}

func newServeStream(env *serveEnv, seed int64) *serveStream {
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]int, len(detectPatterns)+1)
	for i := range detectPatterns {
		kinds[i] = (25 - countPer25) / len(detectPatterns)
	}
	kinds[len(detectPatterns)] = countPer25
	// Repeats repeat detect jobs only. A hit's latency is mostly the size
	// of its result: count and triangle hits take about 0.3 ms, tree hits
	// 3 to 8 ms. Repeating count jobs too would put nearly half of all
	// jobs under 0.6 ms and the median on the edge of that class; without
	// them the median falls inside the cycle:4 hits.
	repeatKinds := append([]int(nil), kinds...)
	repeatKinds[len(detectPatterns)] = 0
	graphs := make([]int, len(env.graphs))
	for i := range graphs {
		graphs[i] = 1
	}
	return &serveStream{
		rng: rng, repeat: newDeck(rng, 4-repeatsPer4, repeatsPer4), kind: newDeck(rng, kinds...),
		repeatKind: newDeck(rng, repeatKinds...), graph: newDeck(rng, graphs...), fresh: make([][]int, len(kinds)),
		env: env, graphN: env.graphs[0].g.N(),
	}
}

func (s *serveStream) next() *serveJob {
	if s.repeat.next() == 1 {
		if fresh := s.fresh[s.repeatKind.next()]; len(fresh) > 0 {
			recent := fresh[max(0, len(fresh)-repeatWindow):]
			f := s.jobs[recent[s.rng.Intn(len(recent))]]
			j := &serveJob{spec: f.spec, g: f.g, fresh: f.fresh}
			s.jobs = append(s.jobs, j)
			return j
		}
	}
	s.nextSeq++
	j := &serveJob{fresh: len(s.jobs)}
	k := s.kind.next()
	if k == len(detectPatterns) {
		g := loadgenGraph(s.graphN, 2, s.rng)
		j.g = g
		j.spec = serve.JobSpec{GraphInline: edgeList(g), Pattern: countPatterns[s.counts%len(countPatterns)], Mode: serve.ModeCount}
		s.counts++
	} else {
		sg := s.env.graphs[s.graph.next()]
		j.g = sg.g
		j.spec = serve.JobSpec{
			Graph:   sg.digest,
			Pattern: detectPatterns[k],
			Options: subgraph.OptionsSpec{Seed: s.nextSeq},
		}
	}
	s.fresh[k] = append(s.fresh[k], len(s.jobs))
	s.jobs = append(s.jobs, j)
	return j
}

// loop submits jobs until the deadline, each after the previous one
// finished, and returns the time it took.
func (s *serveStream) loop(bc *benchClient, rec *recorder, d time.Duration) time.Duration {
	t0 := time.Now()
	for n := 0; n == 0 || time.Since(t0) < d; n++ {
		j := s.next()
		s.finish(j, bc.run(rec, j.spec))
	}
	return time.Since(t0)
}

func runServe(opts options, res *result) error {
	var env *serveEnv
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		e, err := serveSetup(opts.seed, opts.scale, opts.trace)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	defer env.close()
	res.set("setup_s", median(setups))
	var digests strings.Builder
	for _, g := range env.graphs {
		digests.WriteString(g.digest)
	}
	res.exact["graph_digests"] = fingerprint(digests.String())
	res.desc.Params["clients"] = 1
	res.desc.Params["graphs"] = fmt.Sprintf("%dx GNM(n=%d, avg deg 1.2) + planted K3/C4/K4", serveGraphs, env.graphs[0].g.N())
	res.desc.Params["mix"] = fmt.Sprintf("repeat=%d/4 of the last %d fresh detect jobs of a pattern, count=%d/25 of fresh %v, detect %v evenly",
		repeatsPer4, repeatWindow, countPer25, countPatterns, detectPatterns)

	s := newServeStream(env, opts.seed*7919)
	bc := newBenchClient(env.srv.BaseURL)
	defer bc.close()
	measured := opts.seconds
	if opts.trace {
		measured /= 2
	}
	wall := s.loop(bc, nil, seconds(measured))
	res.set("rss_peak_mb", rssPeakMB())
	var lat []float64
	for _, j := range s.jobs {
		if j.done {
			lat = append(lat, ms(j.outcome.wall))
		}
	}
	res.set("jobs_per_s", float64(len(lat))/wall.Seconds())
	res.set("job_p50_ms", percentile(lat, 50))
	res.set("job_p99_ms", percentile(lat, 99))

	if opts.trace {
		if err := serveTraced(opts, res, env, s, bc, float64(len(lat))/wall.Seconds()); err != nil {
			return err
		}
	}
	res.exact["congest_rounds"] = fmt.Sprint(env.warm.Rounds)
	res.exact["congest_messages"] = fmt.Sprint(env.warm.TotalMessages)
	res.exact["congest_bits"] = fmt.Sprint(env.warm.TotalBits)
	if opts.trace {
		res.set("congest.rounds", float64(env.warm.Rounds))
		res.set("congest.messages", float64(env.warm.TotalMessages))
		res.set("congest.bits", float64(env.warm.TotalBits))
	}
	return verifyServe(res, env, s, opts)
}

// serveTraced runs the second half of a traced run with spans on, and
// derives the per-layer metrics from the spans, the server's counters
// and its recorded timelines.
func serveTraced(opts options, res *result, env *serveEnv, s *serveStream, bc *benchClient, untracedRate float64) error {
	c := env.srv.Client
	before, err := counters(c)
	if err != nil {
		return err
	}
	rec := newRecorder()
	res.spans = rec
	from := len(s.jobs)
	wall := s.loop(bc, rec, seconds(opts.seconds/2))
	after, err := counters(c)
	if err != nil {
		return err
	}
	tls, err := timelines(c)
	if err != nil {
		return err
	}

	var submit, wait []float64
	var polls, waited, ops float64
	var pushed float64
	engineByArm := map[string][]float64{}
	armTotal := map[string]float64{}
	var engineTotal, setupNs, teardownNs float64
	var queue, engine, kern []float64
	var rootSelf, rootTotal int64
	for _, j := range s.jobs[from:] {
		o := &j.outcome
		ops++
		pushed += float64(len(j.spec.GraphInline))
		submit = append(submit, ms(o.submit))
		if o.waited {
			wait = append(wait, ms(o.wait))
			polls += float64(o.polls)
			waited++
		}
		tl := tls[o.view.ID]
		if tl == nil {
			continue
		}
		rec.graft(o.req, o.submID, tl, serverLayer)
		self, total := timelineSelfNs(tl)
		rootSelf += self
		rootTotal += total
		var eng float64
		for _, sp := range tl.Spans {
			d := float64(sp.DurationNs()) / 1e6
			switch sp.Name {
			case "queue_wait":
				queue = append(queue, d)
			case "engine_run":
				engine = append(engine, d)
				eng += d
			case "kernel_run":
				kern = append(kern, d)
			case "setup":
				setupNs += d
			case "teardown":
				teardownNs += d
			}
		}
		if eng > 0 && j.done && !o.view.Cached {
			a := j.ans.algorithm
			engineByArm[a] = append(engineByArm[a], eng)
			armTotal[a] += eng
			engineTotal += eng
		}
	}
	res.set("serve.submit_p50_ms", percentile(submit, 50))
	res.set("serve.submit_p99_ms", percentile(submit, 99))
	res.set("serve.wait_p50_ms", percentile(wait, 50))
	res.set("serve.wait_p99_ms", percentile(wait, 99))
	res.set("serve.jobs_waited", waited)
	if waited > 0 {
		res.set("serve.polls_per_job", polls/waited)
	}
	setCacheCounters(res, "serve", before, after, serve.MetricCacheHits, serve.MetricCacheMisses)
	res.set("serve.coalesced", deltaOf(before, after, serve.MetricJobsCoalesced))
	res.set("serve.jobs_batched", deltaOf(before, after, serve.MetricJobsBatched))
	res.set("serve.detect_runs", deltaOf(before, after, serve.MetricDetectRuns))
	res.set("serve.refused", deltaOf(before, after, serve.MetricJobsRejected)+
		deltaOf(before, after, serve.MetricJobsShed)+deltaOf(before, after, serve.MetricJobsDraining))
	res.set("serve.queue_wait_p50_ms", percentile(queue, 50))
	res.set("serve.queue_wait_p99_ms", percentile(queue, 99))
	res.set("serve.engine_run_p50_ms", percentile(engine, 50))
	res.set("serve.engine_run_p99_ms", percentile(engine, 99))
	res.set("serve.kernel_run_p50_ms", percentile(kern, 50))
	if rootTotal > 0 {
		res.set("serve.unexplained_pct", 100*float64(rootSelf)/float64(rootTotal))
	}
	for a, xs := range engineByArm {
		res.set("core."+a+".detect_ms", median(xs))
		if engineTotal > 0 {
			res.set("core."+a+".share_pct", 100*armTotal[a]/engineTotal)
		}
	}
	if ops > 0 {
		res.set("congest.setup_ms", setupNs/ops)
		res.set("congest.teardown_ms", teardownNs/ops)
		res.set("graph.pushed_bytes", pushed/ops)
	}
	tracedRate := ops / wall.Seconds()
	if tracedRate > 0 {
		res.set("trace_overhead_pct", 100*(untracedRate/tracedRate-1))
	}
	res.setAccounting(account(rec.snapshot()))
	return nil
}

// serverLayer maps a serve timeline span to the layer that spends it.
// The server reports no split of the rounds span into node programs and
// delivery; it goes to core, whose node programs dominate it.
func serverLayer(name string) string {
	switch name {
	case "engine_run":
		return layerSubgraph
	case "setup", "teardown":
		return layerCongest
	case "rounds":
		return layerCore
	case "bitset_build":
		return layerGraph
	case "kernel_run":
		return layerKernel
	case "cluster_job", "forward":
		return layerCluster
	}
	return layerServe
}

func setCacheCounters(res *result, prefix string, before, after map[string]int64, hits, misses string) {
	h, m := deltaOf(before, after, hits), deltaOf(before, after, misses)
	res.set(prefix+".cache_lookups", h+m)
	if h+m > 0 {
		res.set(prefix+".cache_hit_pct", 100*h/(h+m))
	}
}

// answer is a job's result reduced to what must match the library.
type answer struct {
	detected  bool
	algorithm string
	rounds    int
	bandwidth int
	stats     [32]byte
	count     int64
}

func answerOf(r *serve.JobResult) answer {
	a := answer{detected: r.Detected, algorithm: r.Algorithm, rounds: r.Rounds, bandwidth: r.BandwidthBits, stats: sha256.Sum256(r.Stats)}
	if r.Count != nil {
		a.count = *r.Count
	}
	return a
}

// verifyServe checks every job: each fresh job against the library and
// each repeat against the fresh job it repeats. Failed jobs count too.
func verifyServe(res *result, env *serveEnv, s *serveStream, opts options) error {
	traced := opts.trace
	var tasks []*serveJob
	for i, j := range s.jobs {
		if j.fresh == i && j.done {
			tasks = append(tasks, j)
		}
	}
	want := make([]answer, len(tasks))
	errs := make([]error, len(tasks))
	var mu sync.Mutex
	samples := map[string][]float64{}
	sample := func(name string, d time.Duration) {
		if traced {
			mu.Lock()
			samples[name] = append(samples[name], ms(d))
			mu.Unlock()
		}
	}
	krn := kernel.New(1)
	defer krn.Close()
	parallelFor(len(tasks), func(i int) {
		j := tasks[i]
		if j.spec.Mode == serve.ModeCount {
			s := cliqueSize(j.spec.Pattern)
			t0 := time.Now()
			b := graph.NewBitAdjacency(j.g)
			sample("graph.bitadj_build_ms", time.Since(t0))
			t0 = time.Now()
			mu.Lock() // the kernel pool serves one call at a time
			c := krn.Count(b, s)
			mu.Unlock()
			sample("kernel.count_ms", time.Since(t0))
			want[i] = answer{count: c}
			return
		}
		h, err := subgraph.ParsePattern(j.spec.Pattern)
		if err != nil {
			errs[i] = err
			return
		}
		o, err := j.spec.Options.Options()
		if err != nil {
			errs[i] = err
			return
		}
		rep, err := subgraph.Detect(subgraph.NewNetwork(j.g), h, o)
		if err != nil {
			errs[i] = err
			return
		}
		st, err := json.Marshal(rep.Stats)
		if err != nil {
			errs[i] = err
			return
		}
		want[i] = answer{detected: rep.Detected, algorithm: rep.Algorithm, rounds: rep.Rounds,
			bandwidth: rep.BandwidthBits, stats: sha256.Sum256(st)}
	})
	if opts.wrongExpected && len(want) > 0 {
		want[0].detected = !want[0].detected
	}
	for i, j := range tasks {
		if errs[i] != nil {
			return fmt.Errorf("library reference for %s: %w", j.spec.Pattern, errs[i])
		}
		got := j.ans
		if j.spec.Mode == serve.ModeCount {
			got = answer{count: got.count}
		}
		if got != want[i] {
			res.wrong("job %s (%s %s): server answer differs from the library", j.outcome.view.ID, j.spec.Mode, j.spec.Pattern)
		}
	}
	for _, j := range s.jobs {
		res.Attempted++
		if !j.done {
			res.Failed++
			continue
		}
		if f := s.jobs[j.fresh]; f != j && f.done && j.ans != f.ans {
			res.wrong("job %s repeats %s but answers differently", j.outcome.view.ID, f.outcome.view.ID)
		}
	}
	for _, g := range env.graphs {
		t0 := time.Now()
		if _, err := graph.ReadEdgeList(strings.NewReader(g.text)); err != nil {
			return err
		}
		sample("graph.parse_ms", time.Since(t0))
		t0 = time.Now()
		d := g.g.Digest()
		sample("graph.digest_ms", time.Since(t0))
		if d != g.digest {
			res.wrong("graph digest %s differs from the server's %s", d, g.digest)
		}
	}
	if traced {
		setSamples(res, samples)
	}
	return nil
}

// setSamples publishes per-call medians and the call counts per layer.
func setSamples(res *result, samples map[string][]float64) {
	calls := map[string]float64{}
	for name, xs := range samples {
		res.set(name, median(xs))
		calls[strings.SplitN(name, ".", 2)[0]] += float64(len(xs))
	}
	for layer, n := range calls {
		res.set(layer+".calls", n)
	}
}

// parallelFor runs f(0..n-1) on GOMAXPROCS goroutines.
func parallelFor(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
