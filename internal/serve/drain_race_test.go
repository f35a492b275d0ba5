package serve

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"subgraph"
)

// TestDrainRaceNoAcceptedJobLost hammers the admission path from many
// goroutines while BeginDrain lands mid-burst, pinning two contracts
// (run it under -race; CI does):
//
//  1. admission is atomic with the drain flag — no submit ever panics
//     into the closed queue, every submit gets a definite answer
//     (202/200 accepted, 429 saturated, 503 draining);
//  2. no accepted job is silently dropped — everything the server said
//     202 to reaches a terminal state by the time Drain returns.
func TestDrainRaceNoAcceptedJobLost(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueDepth: 4, CacheSize: -1})
	text, _ := testEdgeList(t, 3)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}

	// Raw statuses are the point: the retrying client would wait out the
	// 429s and 503s whose interleaving with BeginDrain is under test.
	raw := &Client{Base: c.Base, Retry: NoRetry()}
	const submitters = 8
	const perSubmitter = 12
	var (
		mu        sync.Mutex
		accepted  []string
		wg        sync.WaitGroup
		firstOnce sync.Once
	)
	start := make(chan struct{})
	firstAccepted := make(chan struct{})
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perSubmitter; i++ {
				jv, status, err := raw.SubmitJob(JobSpec{
					Graph:   up.Digest,
					Pattern: "triangle",
					Options: subgraph.OptionsSpec{Seed: int64(w*1000 + i)},
				})
				switch status {
				case http.StatusAccepted, http.StatusOK:
					mu.Lock()
					accepted = append(accepted, jv.ID)
					mu.Unlock()
					firstOnce.Do(func() { close(firstAccepted) })
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Saturation and draining are valid answers mid-burst.
				default:
					t.Errorf("submitter %d job %d: HTTP %d (%v)", w, i, status, err)
				}
			}
		}(w)
	}
	close(start)
	// Drain lands inside the burst: right after the first admission, so
	// the race happens however slowly the submitters get scheduled.
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		select {
		case <-firstAccepted:
		case <-time.After(10 * time.Second):
		}
		s.BeginDrain()
	}()
	wg.Wait()
	<-drainDone

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Drain(ctx); err != nil {
		t.Fatalf("drain under fire: %v", err)
	}

	if len(accepted) == 0 {
		t.Fatal("burst produced no accepted jobs; the race never happened")
	}
	for _, id := range accepted {
		jv, err := raw.Job(id)
		if err != nil {
			t.Fatalf("accepted job %s lost across the drain: %v", id, err)
		}
		if jv.State != StateDone && jv.State != StateFailed {
			t.Fatalf("accepted job %s still %s after Drain returned", id, jv.State)
		}
		if jv.State == StateDone && jv.Result == nil {
			t.Fatalf("accepted job %s done with no result", id)
		}
	}
}
