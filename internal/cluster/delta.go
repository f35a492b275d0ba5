package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"subgraph/internal/graph"
	"subgraph/internal/serve"
)

// Evolving graphs, cluster edition. A delta must be applied by a worker
// that holds the *parent* graph — that worker validates the batch against
// the stored edge set and maintains its own incremental caches — so the
// router routes the request to the parent digest's owners (healing an
// amnesiac owner from the mirror, same as the job path). The successor
// graph then lives under a new digest with, in general, a *different*
// owner set, so after the worker answers, the router:
//
//   - applies the same delta to its mirrored parent (content addressing
//     guarantees the same child), recording lineage in the mirror;
//   - pushes the child to the child digest's owners, so the first job on
//     the successor finds it warm instead of eating a 404/push round-trip;
//   - seeds the cluster-shared result cache along lineage: count-mode
//     entries cached for the parent are re-derived for the child by
//     incremental recounting over the touched vertices, byte-identical
//     to what a worker computing the child from scratch would return.
//
// Seeding respects the worker's own churn verdict (DeltaView.Incremental):
// an over-threshold delta seeds nothing and the child's first count job
// recomputes on a worker.

// handleGraphDelta routes POST /v1/graphs/{digest}/delta.
func (r *Router) handleGraphDelta(w http.ResponseWriter, req *http.Request) {
	if r.Draining() {
		serve.WriteErr(w, http.StatusServiceUnavailable, "cluster is draining; submit elsewhere")
		return
	}
	parentDigest := req.PathValue("digest")
	// Pin the mirrored parent across the round-trip: upload churn must not
	// evict the graph the mirror-side apply and the heal path both need.
	if !r.store.Pin(parentDigest) {
		serve.WriteErr(w, http.StatusNotFound,
			"unknown graph digest %q: the parent is not mirrored here; re-upload the base graph and resubmit the delta",
			parentDigest)
		return
	}
	defer r.store.Unpin(parentDigest)
	parent, _ := r.store.Get(parentDigest)

	payload, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxUploadBytes))
	if err != nil {
		serve.WriteErr(w, http.StatusRequestEntityTooLarge, "reading delta: %v", err)
		return
	}
	// Decode locally too — the router needs the edge lists to update its
	// mirror, and a malformed body should bounce here, not burn a forward.
	var dreq serve.DeltaRequest
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&dreq); err != nil {
		serve.WriteErr(w, http.StatusBadRequest, "decoding delta: %v", err)
		return
	}

	status, body, applier := r.forwardDelta(req.Context(), parentDigest, payload)
	if applier == nil {
		// No owner could be reached (or validation failed): relay whatever
		// terminal verdict we have. Worker validation is deterministic in
		// (parent, delta), so a 4xx from one owner is the cluster's answer.
		if body != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_, _ = w.Write(body)
			return
		}
		serve.WriteErr(w, http.StatusServiceUnavailable, "no live worker could apply the delta; retry later")
		return
	}

	var dv serve.DeltaView
	if err := json.Unmarshal(body, &dv); err != nil {
		serve.WriteErr(w, http.StatusBadGateway, "decoding worker delta response: %v", err)
		return
	}
	r.reg.Counter(MetricGraphDeltas).Inc()

	if dv.Digest != parentDigest {
		// Real successor: mirror it, replicate it to its owners, seed the
		// shared cache. The mirror apply cannot disagree with the worker's —
		// both applied the same delta to the same content-addressed parent.
		res, aerr := graph.ApplyDelta(parent, graph.EdgeDelta{Insert: dreq.Insert, Delete: dreq.Delete})
		if aerr != nil {
			r.logger.Warn("mirror delta apply diverged from worker verdict",
				"parent", parentDigest, "err", aerr)
		} else {
			childDigest, _ := r.store.PutChild(res.Graph, parentDigest)
			if childDigest != dv.Digest {
				r.logger.Warn("mirror child digest disagrees with worker",
					"mirror", childDigest, "worker", dv.Digest)
			}
			r.replicateChild(req.Context(), childDigest, applier.base)
			// The worker's churn verdict gates seeding; the adjacencies are
			// built for this delta and dropped with it.
			seeded, _ := serve.ForwardCountEntries(r.cache, r.krn, parent, res.Graph,
				parentDigest, childDigest, res.Touched, dv.Incremental,
				func() (*graph.BitAdjacency, *graph.BitAdjacency) {
					return graph.NewBitAdjacency(parent), graph.NewBitAdjacency(res.Graph)
				})
			r.reg.Counter(MetricDeltaSeeded).Add(int64(seeded))
		}
	}

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// forwardDelta walks the parent digest's live owners (rotated) until one
// applies the delta. A 404 means the owner lost the parent — heal it from
// the mirror and retry the same owner once. Connection errors mark the
// member down; 503 marks it draining; any other status is a terminal
// verdict relayed to the client as-is. Returns the worker's status and
// raw response body, plus the member that applied it (nil when none did).
func (r *Router) forwardDelta(ctx context.Context, parentDigest string, payload []byte) (int, []byte, *member) {
	order := r.routeOrder(parentDigest, "")
	if len(order) == 0 {
		return 0, nil, nil
	}
	start := int(r.rotor.Add(1)) % len(order)
	for i := 0; i < len(order); i++ {
		m := order[(start+i)%len(order)]
		fctx, cancel := context.WithTimeout(ctx, r.cfg.ForwardTimeout)
		status, body, err := r.postDelta(fctx, m, parentDigest, payload)
		if status == http.StatusNotFound {
			if perr := r.pushGraph(fctx, m, parentDigest); perr == nil {
				status, body, err = r.postDelta(fctx, m, parentDigest, payload)
			}
		}
		cancel()
		switch {
		case status == http.StatusCreated || status == http.StatusOK:
			return status, body, m
		case status == 0:
			r.markDown(m)
			r.logger.Warn("delta forward failed", "member", m.displayName(), "err", err)
		case status == http.StatusServiceUnavailable:
			m.draining.Store(true)
		default:
			return status, body, nil
		}
	}
	return 0, nil, nil
}

// postDelta sends the raw delta payload to one worker and returns the
// response verbatim — the router relays worker delta responses (success
// views and typed validation errors alike) byte for byte.
func (r *Router) postDelta(ctx context.Context, m *member, digest string, payload []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		m.base+"/v1/graphs/"+digest+"/delta", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.ForwardedByHeader, r.cfg.NodeName)
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// replicateChild pushes a freshly mirrored successor graph to its owners,
// skipping the worker that applied the delta (it already stored the
// child). Push failures are tolerated — the job forward path heals
// lazily, same as uploads.
func (r *Router) replicateChild(ctx context.Context, childDigest, applierBase string) {
	var wg sync.WaitGroup
	for _, m := range r.routeOrder(childDigest, applierBase) {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, r.cfg.ForwardTimeout)
			defer cancel()
			if err := r.pushGraph(pctx, m, childDigest); err != nil {
				r.logger.Warn("child graph push failed",
					"member", m.displayName(), "digest", childDigest, "err", err)
			}
		}(m)
	}
	wg.Wait()
}
