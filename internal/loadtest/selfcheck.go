package loadtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"subgraph"
	"subgraph/internal/graph"
	"subgraph/internal/serve"
)

// SelfCheckOptions tunes SelfCheck.
type SelfCheckOptions struct {
	// Saturate additionally asserts queue admission control: it requires
	// the target server to run with -workers 1 -queue 1 and expects a
	// burst of slow jobs to draw a 429.
	Saturate bool
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// SelfCheck drives a running subgraphd end to end and cross-checks it
// against in-process library calls:
//
//  1. /healthz answers ok;
//  2. an uploaded graph dedupes to the locally computed digest;
//  3. a triangle-detection job's result — decision, algorithm, rounds,
//     and the Stats JSON, byte for byte — equals the equivalent
//     subgraph.Detect library call;
//  4. resubmitting the identical job is answered from cache (hit counter
//     increments, engine run counter does not);
//  5. with Saturate: a burst of distinct slow jobs on a 1-worker/1-deep
//     server draws 429 + Retry-After.
//
// The CI smoke job runs this against a freshly started daemon and then
// asserts a clean SIGTERM drain.
func SelfCheck(baseURL string, opt SelfCheckOptions) error {
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &serve.Client{Base: baseURL}

	// 1. Health.
	if h, status, err := c.Health(); err != nil || status != http.StatusOK || h.Status != "ok" {
		return fmt.Errorf("selfcheck: /healthz = (%+v, %d, %v), want ok/200", h, status, err)
	}
	logf("healthz ok")

	// 2. Upload a seeded graph and cross-check the digest.
	rng := rand.New(rand.NewSource(4))
	g, _ := subgraph.PlantClique(subgraph.GNP(60, 0.08, rng), 3, rng)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		return err
	}
	up, err := c.UploadGraph(buf.String())
	if err != nil {
		return fmt.Errorf("selfcheck: upload: %w", err)
	}
	if up.Digest != g.Digest() {
		return fmt.Errorf("selfcheck: server digest %s != local %s", up.Digest, g.Digest())
	}
	if up.N != g.N() || up.M != g.M() {
		return fmt.Errorf("selfcheck: server shape (%d,%d) != local (%d,%d)", up.N, up.M, g.N(), g.M())
	}
	logf("uploaded graph %s (n=%d m=%d)", up.Digest[:12], up.N, up.M)

	// 3. Triangle job vs the library call.
	spec := serve.JobSpec{
		Graph:   up.Digest,
		Pattern: "triangle",
		Options: subgraph.OptionsSpec{Seed: 7},
	}
	jv, status, err := c.SubmitJob(spec)
	if err != nil {
		return fmt.Errorf("selfcheck: submit: %w", err)
	}
	if status != http.StatusAccepted && status != http.StatusOK {
		return fmt.Errorf("selfcheck: submit HTTP %d", status)
	}
	jv, err = c.WaitJob(jv.ID, 30*time.Second)
	if err != nil {
		return err
	}
	if jv.State != serve.StateDone || jv.Result == nil {
		return fmt.Errorf("selfcheck: job %s finished %s (%s)", jv.ID, jv.State, jv.Error)
	}

	h, err := subgraph.ParsePattern(spec.Pattern)
	if err != nil {
		return err
	}
	opts, err := spec.Options.Options()
	if err != nil {
		return err
	}
	rep, err := subgraph.Detect(subgraph.NewNetwork(g), h, opts)
	if err != nil {
		return fmt.Errorf("selfcheck: library call: %w", err)
	}
	if jv.Result.Detected != rep.Detected || jv.Result.Algorithm != rep.Algorithm ||
		jv.Result.Rounds != rep.Rounds || jv.Result.BandwidthBits != rep.BandwidthBits {
		return fmt.Errorf("selfcheck: result mismatch: server (%v,%s,%d,%d) vs library (%v,%s,%d,%d)",
			jv.Result.Detected, jv.Result.Algorithm, jv.Result.Rounds, jv.Result.BandwidthBits,
			rep.Detected, rep.Algorithm, rep.Rounds, rep.BandwidthBits)
	}
	wantStats, err := json.Marshal(rep.Stats)
	if err != nil {
		return err
	}
	if !bytes.Equal(jv.Result.Stats, wantStats) {
		return fmt.Errorf("selfcheck: stats not byte-identical:\nserver  %s\nlibrary %s",
			jv.Result.Stats, wantStats)
	}
	if !jv.Result.Detected {
		return fmt.Errorf("selfcheck: planted triangle not detected")
	}
	logf("job %s: %s detected=%v rounds=%d, stats byte-identical to library", jv.ID,
		jv.Result.Algorithm, jv.Result.Detected, jv.Result.Rounds)

	// 4. The identical resubmission must be a cache hit.
	before, err := c.Metrics()
	if err != nil {
		return err
	}
	jv2, status, err := c.SubmitJob(spec)
	if err != nil {
		return fmt.Errorf("selfcheck: resubmit: %w", err)
	}
	if status != http.StatusOK || !jv2.Cached || jv2.State != serve.StateDone {
		return fmt.Errorf("selfcheck: resubmit not served from cache (HTTP %d, cached=%v, state=%s)",
			status, jv2.Cached, jv2.State)
	}
	if !bytes.Equal(jv2.Result.Stats, wantStats) {
		return fmt.Errorf("selfcheck: cached stats differ from original")
	}
	after, err := c.Metrics()
	if err != nil {
		return err
	}
	if hits := after.Metrics.Counters[serve.MetricCacheHits] - before.Metrics.Counters[serve.MetricCacheHits]; hits != 1 {
		return fmt.Errorf("selfcheck: cache hit counter moved by %d, want 1", hits)
	}
	if runs := after.Metrics.Counters[serve.MetricDetectRuns] - before.Metrics.Counters[serve.MetricDetectRuns]; runs != 0 {
		return fmt.Errorf("selfcheck: engine ran %d times for a cached job, want 0", runs)
	}
	logf("resubmit served from cache; engine not re-run")

	if opt.Saturate {
		if err := selfCheckSaturate(c, logf); err != nil {
			return err
		}
	}
	return nil
}

// selfCheckSaturate asserts 429 admission control against a server started
// with -workers 1 -queue 1: one slow job occupies the worker, one fills
// the queue, and a third must be rejected with Retry-After.
func selfCheckSaturate(c *serve.Client, logf func(string, ...any)) error {
	// A deliberately heavy job: linear-round clique detection on a dense
	// 220-vertex graph takes long enough (hundreds of ms) that two more
	// submissions land while it runs.
	rng := rand.New(rand.NewSource(11))
	big, _ := subgraph.PlantClique(subgraph.GNP(220, 0.25, rng), 4, rng)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, big); err != nil {
		return err
	}
	up, err := c.UploadGraph(buf.String())
	if err != nil {
		return fmt.Errorf("selfcheck: saturate upload: %w", err)
	}
	slow := func(seed int64) serve.JobSpec {
		return serve.JobSpec{
			Graph:   up.Digest,
			Pattern: "clique:4",
			Options: subgraph.OptionsSpec{Seed: seed},
		}
	}
	// Raw statuses are the point here: a retrying client would wait out
	// the saturation we are trying to observe.
	raw := &serve.Client{Base: c.Base, HTTPClient: c.HTTPClient, Retry: serve.NoRetry()}
	var ids []string
	saw429 := false
	for seed := int64(1); seed <= 3; seed++ {
		jv, status, err := raw.SubmitJob(slow(seed))
		switch status {
		case http.StatusAccepted, http.StatusOK:
			ids = append(ids, jv.ID)
		case http.StatusTooManyRequests:
			saw429 = true
		default:
			return fmt.Errorf("selfcheck: saturate submit %d: HTTP %d (%v)", seed, status, err)
		}
	}
	if !saw429 {
		return fmt.Errorf("selfcheck: no 429 from a 3-job burst against -workers 1 -queue 1")
	}
	logf("queue saturation drew 429 as expected")
	for _, id := range ids {
		if _, err := c.WaitJob(id, 60*time.Second); err != nil {
			return fmt.Errorf("selfcheck: waiting out saturation burst: %w", err)
		}
	}
	return nil
}
