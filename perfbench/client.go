package main

import (
	"net/http"
	"time"

	"subgraph/internal/obs"
	"subgraph/internal/serve"
)

// benchClient is one closed-loop client: a serve.Client with its own
// connection pool, no retries (a refusal counts as a failed op), and a
// transport that counts polls.
type benchClient struct {
	c  *serve.Client
	tr *countingTransport
}

func newBenchClient(base string) *benchClient {
	tr := &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
	return &benchClient{
		c: &serve.Client{
			Base:       base,
			HTTPClient: &http.Client{Transport: tr, Timeout: 60 * time.Second},
			Retry:      serve.NoRetry(),
		},
		tr: tr,
	}
}

func (b *benchClient) close() { b.tr.base.(*http.Transport).CloseIdleConnections() }

// jobOutcome is one submitted job as the client saw it.
type jobOutcome struct {
	view   serve.JobView
	status int
	err    error
	wall   time.Duration // submit → terminal state
	submit time.Duration
	wait   time.Duration
	waited bool
	polls  int64
	req    int64 // span request id (0 when untraced)
	submID int64 // the submit span, parent of the server's timeline
}

// ok reports whether the job reached state done.
func (o *jobOutcome) ok() bool {
	return o.err == nil && (o.status == http.StatusOK || o.status == http.StatusAccepted) &&
		o.view.State == serve.StateDone && o.view.Result != nil
}

// run submits spec and polls it to a terminal state, recording an op
// span with the submit and wait calls under it when rec is set.
func (b *benchClient) run(rec *recorder, spec serve.JobSpec) jobOutcome {
	var o jobOutcome
	o.req = rec.id()
	t0 := time.Now()
	rec.call(o.req, 0, layerOp, "job", func(root int64) {
		o.submit = rec.call(o.req, root, layerClient, "client.submit", func(id int64) {
			o.submID = id
			o.view, o.status, o.err = b.c.SubmitJob(spec)
		})
		if o.err != nil || (o.status != http.StatusOK && o.status != http.StatusAccepted) {
			return
		}
		if o.view.State == serve.StateDone || o.view.State == serve.StateFailed {
			return
		}
		o.waited = true
		gets := b.tr.gets.Load()
		o.wait = rec.call(o.req, root, layerClient, "client.wait", func(int64) {
			o.view, o.err = b.c.WaitJob(o.view.ID, 60*time.Second)
		})
		o.polls = b.tr.gets.Load() - gets
	})
	o.wall = time.Since(t0)
	return o
}

// counters fetches the server's (or the router's aggregated) counters.
func counters(c *serve.Client) (map[string]int64, error) {
	mv, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	return mv.Metrics.Counters, nil
}

// deltaOf returns after[name] - before[name].
func deltaOf(before, after map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}

// timelines fetches the recorded job timelines, keyed by job id.
func timelines(c *serve.Client) (map[string]*obs.TimelineView, error) {
	dj, err := c.DebugJobs()
	if err != nil {
		return nil, err
	}
	out := make(map[string]*obs.TimelineView, len(dj.Timelines))
	for _, tl := range dj.Timelines {
		if tl.JobID != "" {
			out[tl.JobID] = tl
		}
	}
	return out, nil
}
