package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"subgraph/internal/serve"
)

// InProcess is a live cluster on loopback ports: N worker daemons plus a
// router fronting them, with a typed client pointed at the router. It is
// the harness behind the cluster tests, the node-crash diffcheck oracle,
// and `subgraphload -cluster N` — the same topology a production
// deployment runs, minus the machines.
type InProcess struct {
	// Router is the fronting router (prober started).
	Router *Router
	// Client targets the router.
	Client *serve.Client
	// BaseURL is the router's root.
	BaseURL string
	// Workers are the member daemons, index-aligned with the router's
	// member list (worker i is named "w<i>").
	Workers []*serve.InProcess

	hs *http.Server
	ln net.Listener
}

// StartInProcess boots nWorkers worker daemons (each from workerCfg,
// with NodeName w0..w<n-1> and its own Registry) and a router over them
// from routerCfg (Members is filled in; any preset value is ignored).
func StartInProcess(nWorkers int, workerCfg serve.Config, routerCfg Config) (*InProcess, error) {
	if nWorkers < 1 {
		return nil, fmt.Errorf("cluster: need at least one worker, got %d", nWorkers)
	}
	c := &InProcess{}
	for i := 0; i < nWorkers; i++ {
		wc := workerCfg
		wc.NodeName = fmt.Sprintf("w%d", i)
		// Registries must not be shared across nodes: each worker's
		// /metrics page is scraped and summed by the router.
		wc.Registry = nil
		w, err := serve.StartInProcess(wc)
		if err != nil {
			c.Close(0)
			return nil, err
		}
		c.Workers = append(c.Workers, w)
	}
	members := make([]string, nWorkers)
	for i, w := range c.Workers {
		members[i] = w.BaseURL
	}
	routerCfg.Members = members
	rt, err := New(routerCfg)
	if err != nil {
		c.Close(0)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close(0)
		return nil, fmt.Errorf("cluster: in-process listener: %w", err)
	}
	hs := &http.Server{Handler: rt.Handler()}
	go func() { _ = hs.Serve(ln) }()
	rt.Start()
	c.Router = rt
	c.BaseURL = "http://" + ln.Addr().String()
	c.Client = &serve.Client{Base: c.BaseURL}
	c.hs = hs
	c.ln = ln
	return c, nil
}

// KillWorker hard-crashes worker i (no drain; its in-flight jobs are
// lost from the router's point of view). The router discovers the death
// on its next probe, forward, or poll and re-routes.
func (c *InProcess) KillWorker(i int) error {
	if i < 0 || i >= len(c.Workers) {
		return fmt.Errorf("cluster: no worker %d", i)
	}
	return c.Workers[i].Kill()
}

// Close drains the router (resolving every admitted job), then the
// workers, then shuts all listeners down. timeout 0 means 30s total.
func (c *InProcess) Close(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var first error
	if c.Router != nil {
		if err := c.Router.Drain(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, w := range c.Workers {
		if err := w.Close(timeout); err != nil && first == nil {
			first = err
		}
	}
	if c.hs != nil {
		if err := c.hs.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}
