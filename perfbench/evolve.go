package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"subgraph"
	"subgraph/internal/cluster"
	"subgraph/internal/graph"
	"subgraph/internal/kernel"
	"subgraph/internal/serve"
)

// The evolve workload: an in-process router over two workers at
// replication 2 holds one large graph. One client applies a chain of
// small mixed insert/delete deltas that watch clique:4; a second client
// submits count jobs on the current head, some of them repeats.

var evolvePatterns = []string{"triangle", "clique:4", "clique:5"}

const (
	evolveN          = 2000
	evolveDeg        = 40.0
	deltaChanges     = 8 // per delta, half inserts and half deletes
	watchPattern     = "clique:4"
	watchSize        = 4
	evolveWarmDeltas = 4  // warm-up deltas, on a branch the measured chain never visits
	evolveMaxGraphs  = 16 // per store; older chain graphs are evicted
)

// edgeSet is the delta client's view of the head graph: enough to draw a
// valid delta without building graphs in the timed loop.
type edgeSet struct {
	n     int
	edges [][2]int
	index map[[2]int]int
}

func newEdgeSet(g *graph.Graph) *edgeSet {
	s := &edgeSet{n: g.N(), edges: g.Edges(), index: map[[2]int]int{}}
	for i, e := range s.edges {
		s.index[e] = i
	}
	return s
}

// draw picks half the changes as deletes of present edges and half as
// inserts of absent ones.
func (s *edgeSet) draw(rng *rand.Rand, changes int) graph.EdgeDelta {
	var d graph.EdgeDelta
	picked := map[[2]int]bool{}
	for len(d.Delete) < changes/2 {
		e := s.edges[rng.Intn(len(s.edges))]
		if !picked[e] {
			picked[e] = true
			d.Delete = append(d.Delete, e)
		}
	}
	for len(d.Insert) < changes-changes/2 {
		u, v := rng.Intn(s.n), rng.Intn(s.n)
		if u == v {
			continue
		}
		e := [2]int{min(u, v), max(u, v)}
		if _, ok := s.index[e]; ok || picked[e] {
			continue
		}
		picked[e] = true
		d.Insert = append(d.Insert, e)
	}
	return d
}

func (s *edgeSet) apply(d graph.EdgeDelta) {
	for _, e := range d.Delete {
		i := s.index[e]
		last := s.edges[len(s.edges)-1]
		s.edges[i] = last
		s.index[last] = i
		s.edges = s.edges[:len(s.edges)-1]
		delete(s.index, e)
	}
	for _, e := range d.Insert {
		s.index[e] = len(s.edges)
		s.edges = append(s.edges, e)
	}
}

// evolveEnv is a started cluster holding the base graph.
type evolveEnv struct {
	cl         *cluster.InProcess
	base       *graph.Graph
	baseDigest string
	baseCounts map[int]int64
	warmChain  []string // digests of the warm-up branch, fixed for a seed
}

func (e *evolveEnv) close() { _ = e.cl.Close(10 * time.Second) }

// evolveSetup starts the cluster, uploads the base graph, computes its
// counts, primes the shared cache with them and warms the write path up
// on a side branch.
func evolveSetup(seed int64, scale float64, krn *kernel.Kernel) (*evolveEnv, error) {
	n := max(50, int(evolveN*scale))
	deg := min(evolveDeg, float64(n)/4)
	rng := rand.New(rand.NewSource(seed))
	text := edgeList(graph.GNM(n, int(deg*float64(n)/2), rng))
	base, err := graph.ReadEdgeList(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	cl, err := cluster.StartInProcess(2,
		serve.Config{MaxGraphs: evolveMaxGraphs},
		cluster.Config{Replication: 2, CacheSize: 1 << 16, MaxGraphs: evolveMaxGraphs, FlightRecorderSize: flightSize})
	if err != nil {
		return nil, err
	}
	env := &evolveEnv{cl: cl, base: base, baseCounts: map[int]int64{}}
	up, err := cl.Client.UploadGraph(text)
	if err != nil {
		env.close()
		return nil, fmt.Errorf("uploading the base graph: %w", err)
	}
	env.baseDigest = up.Digest
	b := graph.NewBitAdjacency(base)
	for _, p := range evolvePatterns {
		env.baseCounts[cliqueSize(p)] = krn.Count(b, cliqueSize(p))
	}

	bc := newBenchClient(cl.BaseURL)
	defer bc.close()
	countAll := func(digest string) error {
		for _, p := range evolvePatterns {
			if o := bc.run(nil, serve.JobSpec{Graph: digest, Pattern: p, Mode: serve.ModeCount}); !o.ok() {
				return fmt.Errorf("count job %s: status %d, %v %s", p, o.status, o.err, o.view.Error)
			}
		}
		return nil
	}
	if err := countAll(env.baseDigest); err != nil {
		env.close()
		return nil, err
	}
	warm := newEdgeSet(base)
	wrng := rand.New(rand.NewSource(^seed))
	head := env.baseDigest
	for i := 0; i < evolveWarmDeltas; i++ {
		d := warm.draw(wrng, deltaChanges)
		dv, status, err := bc.c.ApplyDelta(head, serve.DeltaRequest{Insert: d.Insert, Delete: d.Delete, Watch: []string{watchPattern}})
		if err != nil || status != http.StatusCreated {
			env.close()
			return nil, fmt.Errorf("warm-up delta %d: status %d, %v", i, status, err)
		}
		warm.apply(d)
		head = dv.Digest
		env.warmChain = append(env.warmChain, head)
		if err := countAll(head); err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

// cliqueSize is the clique order a count pattern names.
func cliqueSize(pattern string) int {
	h, _ := subgraph.ParsePattern(pattern) // evolvePatterns are valid
	s, _ := kernel.CliqueSize(h)
	return s
}

// deltaRecord is one applied (or refused) delta of the measured chain.
type deltaRecord struct {
	d      graph.EdgeDelta
	status int
	err    error
	view   serve.DeltaView
	wall   time.Duration
}

func (r *deltaRecord) ok() bool {
	return r.err == nil && r.status == http.StatusCreated && len(r.view.Watch) == 1 && r.view.Watch[0].Count != nil
}

// countKey names a count job: a head (an index into evolveRun.heads) and
// a pattern (an index into evolvePatterns). A run makes a hundred
// thousand count jobs or more; records this small keep the benchmark's
// own memory, and so the peak RSS, from growing with the read rate.
type countKey struct {
	head    int32
	pattern uint8
}

// countRecord is one count job. It holds no pointers, so the garbage
// collector, which the benchmark shares with the cluster, does not scan
// the records.
type countRecord struct {
	key   countKey
	done  bool
	count int64
	wall  time.Duration
}

// countTrace finds a traced count job's timeline and spans.
type countTrace struct {
	submit time.Duration
	id     string
	req    int64
	submID int64
}

// evolveRun is the state the two clients share. The count client is a
// closed loop of its own on whatever head is current: the first time it
// sees a head it submits one fresh count job per pattern on it, and
// otherwise it repeats an earlier count job. So its rate and latency are
// the read path's, measured beside the writes.
type evolveRun struct {
	env    *evolveEnv
	set    *edgeSet
	deltas []*deltaRecord
	counts []countRecord
	traces []countTrace // for the counts of the traced phase, in order
	drng   *rand.Rand
	crng   *rand.Rand

	mu     sync.Mutex
	head   string
	closed bool // the delta client has stopped for this phase

	heads   []string   // the heads the count client has counted, base first
	history []countKey // fresh count jobs so far
}

func (r *evolveRun) publish(head string, closed bool) {
	r.mu.Lock()
	if head != "" {
		r.head = head
	}
	r.closed = closed
	r.mu.Unlock()
}

// nextJobs returns the count client's next jobs: fresh ones on a head
// it has not counted yet, else one repeat. ok is false once the delta
// client has stopped.
func (r *evolveRun) nextJobs() (keys []countKey, ok bool) {
	r.mu.Lock()
	head, closed := r.head, r.closed
	r.mu.Unlock()
	if closed {
		return nil, false
	}
	if head == r.heads[len(r.heads)-1] {
		return []countKey{r.history[r.crng.Intn(len(r.history))]}, true
	}
	r.heads = append(r.heads, head)
	for p := range evolvePatterns {
		keys = append(keys, countKey{head: int32(len(r.heads) - 1), pattern: uint8(p)})
	}
	r.history = append(r.history, keys...)
	return keys, true
}

// phase runs both clients until the deadline.
func (r *evolveRun) phase(rec *recorder, d time.Duration) time.Duration {
	dc, cc := newBenchClient(r.env.cl.BaseURL), newBenchClient(r.env.cl.BaseURL)
	defer dc.close()
	defer cc.close()
	r.publish("", false)
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer r.publish("", true)
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			rd := &deltaRecord{d: r.set.draw(r.drng, deltaChanges)}
			r.mu.Lock()
			head := r.head
			r.mu.Unlock()
			req := rec.id()
			t := time.Now()
			rec.call(req, 0, layerOp, "delta", func(root int64) {
				rec.call(req, root, layerClient, "client.delta", func(int64) {
					rd.view, rd.status, rd.err = dc.c.ApplyDelta(head, serve.DeltaRequest{
						Insert: rd.d.Insert, Delete: rd.d.Delete, Watch: []string{watchPattern}})
				})
			})
			rd.wall = time.Since(t)
			r.deltas = append(r.deltas, rd)
			if rd.ok() {
				r.set.apply(rd.d)
				r.publish(rd.view.Digest, false)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			keys, ok := r.nextJobs()
			if !ok {
				return
			}
			for _, k := range keys {
				o := cc.run(rec, serve.JobSpec{Graph: r.heads[k.head], Pattern: evolvePatterns[k.pattern], Mode: serve.ModeCount})
				cr := countRecord{key: k, wall: o.wall}
				if o.ok() && o.view.Result.Count != nil {
					cr.done, cr.count = true, *o.view.Result.Count
				}
				r.counts = append(r.counts, cr)
				if rec != nil {
					r.traces = append(r.traces, countTrace{submit: o.submit, id: o.view.ID, req: o.req, submID: o.submID})
				}
			}
		}
	}()
	wg.Wait()
	return time.Since(t0)
}

func runEvolve(opts options, res *result) error {
	krn := kernel.New(0)
	defer krn.Close()
	var env *evolveEnv
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		e, err := evolveSetup(opts.seed, opts.scale, krn)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	defer env.close()
	res.set("setup_s", median(setups))
	// The measured chain's length depends on the run's timing; the base
	// and the warm-up branch do not.
	res.exact["graph_digests"] = fingerprint(env.baseDigest + strings.Join(env.warmChain, ""))
	res.desc.Params["graph"] = fmt.Sprintf("GNM(n=%d, m=%d)", env.base.N(), env.base.M())
	res.desc.Params["topology"] = "router + 2 workers, replication 2"
	res.desc.Params["delta"] = fmt.Sprintf("%d changes (half inserts), watch %s", deltaChanges, watchPattern)
	res.desc.Params["count_jobs"] = fmt.Sprintf("closed loop: %v fresh on each new head, else a repeat", evolvePatterns)

	r := &evolveRun{
		env: env, set: newEdgeSet(env.base), head: env.baseDigest, heads: []string{env.baseDigest},
		drng: rand.New(rand.NewSource(opts.seed*104729 + 1)),
		crng: rand.New(rand.NewSource(opts.seed*104729 + 2)),
	}
	// The base graph's counts were primed in setup; repeats draw from them too.
	for p := range evolvePatterns {
		r.history = append(r.history, countKey{head: 0, pattern: uint8(p)})
	}
	measured := opts.seconds
	if opts.trace {
		measured /= 2
	}
	wall := r.phase(nil, seconds(measured))
	res.set("rss_peak_mb", rssPeakMB())
	var lat, dlat []float64
	for _, c := range r.counts {
		if c.done {
			lat = append(lat, ms(c.wall))
		}
	}
	for _, d := range r.deltas {
		if d.ok() {
			dlat = append(dlat, ms(d.wall))
		}
	}
	untracedOps := float64(len(lat)+len(dlat)) / wall.Seconds()
	// The jobs are the watched deltas: the write path is the workload's
	// work. The count jobs beside them are mostly router cache hits well
	// under a millisecond, whose tail is set by how they meet the writes on
	// two cores; they are reported as reads, in the per-layer set.
	res.set("jobs_per_s", float64(len(dlat))/wall.Seconds())
	res.set("job_p50_ms", percentile(dlat, 50))
	res.set("job_p99_ms", percentile(dlat, 99))
	res.set("deltas_per_s", float64(len(dlat))/wall.Seconds())
	res.set("delta_p50_ms", percentile(dlat, 50))
	res.set("delta_p90_ms", percentile(dlat, 90))
	res.set("reads_per_s", float64(len(lat))/wall.Seconds())
	res.set("read_p50_ms", percentile(lat, 50))
	res.set("read_p99_ms", percentile(lat, 99))
	res.desc.Params["deltas"] = len(dlat)
	res.desc.Params["count_jobs_done"] = len(lat)

	if opts.trace {
		if err := evolveTraced(opts, res, r, untracedOps); err != nil {
			return err
		}
	}
	return verifyEvolve(res, r, krn, opts)
}

// evolveTraced runs the second half of a traced run with spans on.
func evolveTraced(opts options, res *result, r *evolveRun, untracedOps float64) error {
	c := r.env.cl.Client
	before, err := counters(c)
	if err != nil {
		return err
	}
	rec := newRecorder()
	res.spans = rec
	nd, nc := len(r.deltas), len(r.counts)
	wall := r.phase(rec, seconds(opts.seconds/2))
	after, err := counters(c)
	if err != nil {
		return err
	}
	tls, err := timelines(c)
	if err != nil {
		return err
	}
	var submit, dlat []float64
	var rootSelf, rootTotal int64
	ops := float64(len(r.deltas) - nd + len(r.counts) - nc)
	for _, ct := range r.traces {
		submit = append(submit, ms(ct.submit))
		if tl := tls[ct.id]; tl != nil {
			rec.graft(ct.req, ct.submID, tl, func(string) string { return layerCluster })
			self, total := timelineSelfNs(tl)
			rootSelf += self
			rootTotal += total
		}
	}
	for _, d := range r.deltas[nd:] {
		if d.ok() {
			dlat = append(dlat, ms(d.wall))
		}
	}
	res.set("cluster.submit_p50_ms", percentile(submit, 50))
	res.set("cluster.delta_p50_ms", percentile(dlat, 50))
	setCacheCounters(res, "cluster", before, after, cluster.MetricCacheHits, cluster.MetricCacheMisses)
	pushes := deltaOf(before, after, cluster.MetricGraphPushes)
	res.set("cluster.graph_pushes", pushes)
	res.set("cluster.delta_seeded", deltaOf(before, after, cluster.MetricDeltaSeeded))
	res.set("cluster.redispatched", deltaOf(before, after, cluster.MetricJobsRedispatched))
	if rootTotal > 0 {
		res.set("cluster.unexplained_pct", 100*float64(rootSelf)/float64(rootTotal))
	}
	if len(dlat) > 0 {
		// Each push ships the child's edge list; its size is measured on
		// replay (verifyEvolve), here it is the pushes per delta.
		res.set("graph.pushed_bytes", pushes/float64(len(dlat)))
	}
	if ops > 0 {
		if tracedOps := ops / wall.Seconds(); tracedOps > 0 {
			res.set("trace_overhead_pct", 100*(untracedOps/tracedOps-1))
		}
	}
	res.setAccounting(account(rec.snapshot()))
	return nil
}

// verifyEvolve replays the measured chain locally: every child digest
// must equal the local graph.ApplyDelta chain's, and every watched and
// every count-job answer must equal a from-scratch kernel count. A traced
// run also times the graph and kernel calls the write path makes.
func verifyEvolve(res *result, r *evolveRun, krn *kernel.Kernel, opts options) error {
	traced := opts.trace
	samples := map[string][]float64{}
	timed := func(name string, f func()) {
		t0 := time.Now()
		f()
		if traced {
			samples[name] = append(samples[name], ms(time.Since(t0)))
		}
	}
	want := map[string]map[int]int64{r.env.baseDigest: r.env.baseCounts}
	prev := r.env.baseCounts
	g := r.env.base
	b := graph.NewBitAdjacency(g)
	var edgeBytes []float64
	for _, rd := range r.deltas {
		res.Attempted++
		if !rd.ok() {
			res.Failed++
			continue
		}
		var applied *graph.DeltaResult
		var err error
		timed("graph.apply_delta_ms", func() { applied, err = graph.ApplyDelta(g, rd.d) })
		if err != nil {
			res.wrong("delta to %s: local apply failed: %v", rd.view.Digest, err)
			return nil // the chain cannot be replayed past this point
		}
		child := applied.Graph
		var digest string
		timed("graph.digest_ms", func() { digest = child.Digest() })
		if digest != rd.view.Digest {
			res.wrong("child digest %s differs from the local chain's %s", rd.view.Digest, digest)
		}
		var cb *graph.BitAdjacency
		timed("graph.bitadj_build_ms", func() { cb = graph.NewBitAdjacency(child) })
		counts := map[int]int64{}
		for _, p := range evolvePatterns {
			s := cliqueSize(p)
			timed("kernel.count_ms", func() { counts[s] = krn.Count(cb, s) })
		}
		if opts.wrongExpected && len(want) == 1 {
			counts[watchSize]++
		}
		if got := *rd.view.Watch[0].Count; got != counts[watchSize] {
			res.wrong("delta to %s: watched %s count %d, scratch count %d", digest, watchPattern, got, counts[watchSize])
		}
		if traced {
			var inc int64
			timed("kernel.count_delta_ms", func() {
				inc = krn.CountDelta(g, b, child, cb, watchSize, applied.Touched, prev[watchSize])
			})
			if inc != counts[watchSize] {
				res.wrong("delta to %s: CountDelta %d, scratch count %d", digest, inc, counts[watchSize])
			}
			text := edgeList(child)
			edgeBytes = append(edgeBytes, float64(len(text)))
			timed("graph.parse_ms", func() { _, err = graph.ReadEdgeList(strings.NewReader(text)) })
			if err != nil {
				return err
			}
		}
		want[digest] = counts
		prev = counts
		g, b = child, cb
	}
	for _, c := range r.counts {
		res.Attempted++
		if !c.done {
			res.Failed++
			continue
		}
		head, pattern := r.heads[c.key.head], evolvePatterns[c.key.pattern]
		w, ok := want[head]
		if !ok {
			res.wrong("count job on %s, a digest outside the measured chain", head)
			continue
		}
		if s := cliqueSize(pattern); c.count != w[s] {
			res.wrong("count job %s on %s: %d, scratch count %d", pattern, head, c.count, w[s])
		}
	}
	if traced {
		setSamples(res, samples)
		if v, ok := res.values["graph.pushed_bytes"]; ok {
			res.set("graph.pushed_bytes", v*mean(edgeBytes))
		}
	}
	return nil
}
