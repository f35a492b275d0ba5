package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subgraph/internal/obs"
)

// Layer names used for spans. Spans of layerOp are the roots (one per
// op); spans of layerClient are the benchmark's own HTTP calls. Time
// attributed to either is time no program layer explains.
const (
	layerOp       = "op"
	layerClient   = "client"
	layerGraph    = "graph"
	layerKernel   = "kernel"
	layerCongest  = "congest"
	layerCore     = "core"
	layerSubgraph = "subgraph"
	layerServe    = "serve"
	layerCluster  = "cluster"
)

var programLayers = []string{layerGraph, layerKernel, layerCongest, layerCore, layerSubgraph, layerServe, layerCluster}

// span is one timed interval: a call into a layer, or a server-side span
// read back from /debug/jobs. Spans of one op share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths pass nil.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// id reserves a span or request id.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// add records a finished span under a reserved id.
func (r *recorder) add(id, req, parent int64, layer, name string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: r.ns(start), End: r.ns(end)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// call times f as a span and returns its duration. f receives the span's
// id so it can parent child spans.
func (r *recorder) call(req, parent int64, layer, name string, f func(id int64)) time.Duration {
	id := r.id()
	t0 := time.Now()
	f(id)
	t1 := time.Now()
	r.add(id, req, parent, layer, name, t0, t1)
	return t1.Sub(t0)
}

// graft records a server-side timeline under parent, shifting its spans
// to the recorder's clock. Span names map to layers through layerOf.
func (r *recorder) graft(req, parent int64, tl *obs.TimelineView, layerOf func(name string) string) {
	if r == nil || tl == nil {
		return
	}
	ids := make(map[uint64]int64, len(tl.Spans))
	for _, s := range tl.Spans {
		ids[s.SpanID] = r.id()
	}
	for _, s := range tl.Spans {
		p := parent
		if s.ParentID != 0 {
			if id, ok := ids[s.ParentID]; ok {
				p = id
			}
		}
		r.add(ids[s.SpanID], req, p, layerOf(s.Name), s.Name,
			tl.Start.Add(time.Duration(s.StartNs)), tl.Start.Add(time.Duration(s.EndNs)))
	}
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// accounting is how the op time of a traced run splits across layers.
type accounting struct {
	ops      int
	wallNs   int64            // summed op root durations
	selfNs   map[string]int64 // per layer
	unexplNs int64            // time under no program-layer span
}

// account attributes every instant of every op to the deepest span
// covering it (ties go to the span that started last), so overlapping
// client and server spans are not counted twice. A layer's self time is
// the time attributed to its spans.
func account(spans []span) accounting {
	a := accounting{selfNs: map[string]int64{}}
	byReq := map[int64][]span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	for _, ss := range byReq {
		var root *span
		for i := range ss {
			if ss[i].Layer == layerOp && (root == nil || ss[i].Parent == 0) {
				root = &ss[i]
			}
		}
		if root == nil {
			continue
		}
		a.ops++
		a.wallNs += root.End - root.Start
		for i, ns := range attribute(ss, *root) {
			if layer := ss[i].Layer; layer == layerOp || layer == layerClient {
				a.unexplNs += ns
			} else {
				a.selfNs[layer] += ns
			}
		}
	}
	return a
}

// attribute splits root's interval among the spans of one op: the
// result holds, for each span of ss, the time attributed to it.
func attribute(ss []span, root span) []int64 {
	byID := make(map[int64]int, len(ss))
	for i, s := range ss {
		byID[s.ID] = i
	}
	depth := make([]int, len(ss))
	for i := range ss {
		d, cur := 0, ss[i]
		for cur.ID != root.ID && d < 64 {
			j, ok := byID[cur.Parent]
			if !ok {
				d++ // orphans hang directly under the root
				break
			}
			d++
			cur = ss[j]
		}
		depth[i] = d
	}
	type event struct {
		t     int64
		i     int
		start bool
	}
	evs := make([]event, 0, 2*len(ss))
	for i, s := range ss {
		st, en := max(s.Start, root.Start), min(s.End, root.End)
		if en <= st {
			continue
		}
		evs = append(evs, event{st, i, true}, event{en, i, false})
	}
	sort.Slice(evs, func(x, y int) bool { return evs[x].t < evs[y].t })
	out := make([]int64, len(ss))
	active := map[int]bool{}
	prev := root.Start
	for k := 0; k < len(evs); {
		t := evs[k].t
		if t > prev && len(active) > 0 {
			best := -1
			for i := range active {
				if best < 0 || depth[i] > depth[best] ||
					(depth[i] == depth[best] && (ss[i].Start > ss[best].Start ||
						(ss[i].Start == ss[best].Start && ss[i].ID > ss[best].ID))) {
					best = i
				}
			}
			out[best] += t - prev
		}
		for ; k < len(evs) && evs[k].t == t; k++ {
			if evs[k].start {
				active[evs[k].i] = true
			} else {
				delete(active, evs[k].i)
			}
		}
		prev = t
	}
	return out
}

// timelineSelfNs is the part of a server-side timeline's root span that
// attribute gives to no other span of the timeline, and the root's length.
func timelineSelfNs(tl *obs.TimelineView) (self, total int64) {
	ss := make([]span, len(tl.Spans))
	root := -1
	for i, s := range tl.Spans {
		ss[i] = span{ID: int64(s.SpanID), Parent: int64(s.ParentID), Start: s.StartNs, End: s.EndNs}
		if s.ParentID == 0 && root < 0 {
			root = i
		}
	}
	if root < 0 {
		return 0, 0
	}
	return attribute(ss, ss[root])[root], ss[root].End - ss[root].Start
}

// setAccounting publishes op wall time, per-layer self time (both per
// op) and the unexplained share.
func (r *result) setAccounting(a accounting) {
	if a.ops == 0 {
		return
	}
	r.set("ops.wall_ms", float64(a.wallNs)/1e6/float64(a.ops))
	for _, l := range programLayers {
		r.set(l+".self_ms", float64(a.selfNs[l])/1e6/float64(a.ops))
	}
	if a.wallNs > 0 {
		r.set("unexplained_pct", 100*float64(a.unexplNs)/float64(a.wallNs))
	}
}

// phaseClock is a Tracer that turns the engine's phase timings into
// spans: one per setup/rounds/teardown phase of every simulator run, and
// under each rounds span one aggregate span for the node programs' share
// (the summed ComputeNs of the run's rounds).
type phaseClock struct {
	rec         *recorder
	req, parent int64

	runCompute int64 // ComputeNs summed over the current run's rounds
	parallel   bool  // the current run is on the parallel engine

	rounds     int64
	computeNs  int64
	deliverNs  int64
	setupNs    int64
	teardownNs int64
	phaseNs    int64 // setup + rounds + teardown
	utilSum    float64
	utilRounds int64
}

func (p *phaseClock) RunStart(info obs.RunInfo) { p.parallel = info.Engine == "parallel" }
func (p *phaseClock) RoundStart(int)            {}
func (p *phaseClock) Message(obs.MessageEvent)  {}
func (p *phaseClock) Fault(obs.FaultEvent)      {}
func (p *phaseClock) Node(obs.NodeEvent)        {}
func (p *phaseClock) RunEnd(obs.RunSummary)     {}

func (p *phaseClock) RoundEnd(rs obs.RoundStats) {
	p.rounds++
	p.runCompute += rs.ComputeNs
	p.computeNs += rs.ComputeNs
	p.deliverNs += rs.DeliverNs
	if p.parallel {
		p.utilSum += rs.WorkerUtilization
		p.utilRounds++
	}
}

func (p *phaseClock) Phase(name string, elapsed time.Duration) {
	end := time.Now()
	start := end.Add(-elapsed)
	p.phaseNs += elapsed.Nanoseconds()
	switch name {
	case "setup":
		p.setupNs += elapsed.Nanoseconds()
	case "teardown":
		p.teardownNs += elapsed.Nanoseconds()
	}
	id := p.rec.id()
	p.rec.add(id, p.req, p.parent, layerCongest, "congest."+name, start, end)
	if name == "rounds" {
		p.rec.add(p.rec.id(), p.req, id, layerCore, "core.node_programs", start, start.Add(time.Duration(p.runCompute)))
		p.runCompute = 0
	}
}

// countingTransport counts GET requests, which the serve client issues
// only to poll jobs while it waits.
type countingTransport struct {
	base http.RoundTripper
	gets atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet {
		t.gets.Add(1)
	}
	return t.base.RoundTrip(req)
}
