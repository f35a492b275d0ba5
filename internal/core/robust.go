package core

import (
	"time"

	"subgraph/internal/congest"
	"subgraph/internal/obs"
)

// RunOptions are the simulator options every detector config embeds.
type RunOptions struct {
	// Seed drives all randomness of the run.
	Seed int64
	// Parallel selects the goroutine simulator engine.
	Parallel bool
	// Faults optionally injects a delivery-phase fault plan (drops,
	// corruption, crash-stops, throttling).
	Faults *congest.FaultPlan
	// Deadline aborts the run after a wall-clock budget (0 = none); on
	// expiry the partial report is returned alongside the error.
	Deadline time.Duration
	// Tracer, when non-nil, streams run events (rounds, messages,
	// faults, node transitions, timings) to the observability layer in
	// internal/obs; nil disables instrumentation at zero cost.
	Tracer obs.Tracer
}

// Outcome is what every detector reports; each report embeds it next to
// its algorithm-specific fields.
type Outcome struct {
	// Detected reports whether some node rejected (Definition 1: a copy
	// of the pattern was found, or, for the even-cycle detector, the
	// edge bound certified that one exists).
	Detected bool
	// Rounds is the number of rounds executed.
	Rounds int
	// Bandwidth is the per-edge bit budget the detector runs under
	// (0 = unbounded, the LOCAL model). Under the resilient decorator it
	// is the inner budget; the framed outer budget is larger.
	Bandwidth int
	// Stats holds the simulator's communication measurements.
	Stats congest.Stats
}

// outcome returns the Outcome itself. Every report embeds an Outcome and
// so has this method, which lets OutcomeOf take any report.
func (o *Outcome) outcome() *Outcome { return o }

// OutcomeOf returns the Outcome a detector report embeds, or nil
// alongside err when the detector returned no report. It takes a Detect*
// call directly: OutcomeOf(DetectTree(nw, cfg)).
func OutcomeOf[P interface {
	*R
	outcome() *Outcome
}, R any](rep P, err error) (*Outcome, error) {
	if rep == nil {
		return nil, err
	}
	return rep.outcome(), err
}

// runRobust runs a detector's node program under ccfg (whose B is the
// detector's bandwidth) with the run options, wrapping every node in the
// ack/retransmit decorator when resilient is non-nil. On a deadline or
// cancellation abort the partial Outcome is returned alongside the
// error, so callers surface a partial report instead of nothing.
func runRobust(nw *congest.Network, factory func() congest.Node, ccfg congest.Config,
	run RunOptions, resilient *congest.ResilientConfig) (*Outcome, error) {
	bandwidth := ccfg.B
	ccfg.Seed, ccfg.Parallel = run.Seed, run.Parallel
	ccfg.Faults, ccfg.Deadline, ccfg.Tracer = run.Faults, run.Deadline, run.Tracer
	if resilient != nil {
		var err error
		factory, ccfg, err = congest.WrapResilient(factory, ccfg, *resilient)
		if err != nil {
			return nil, err
		}
	}
	res, err := congest.Run(nw, factory, ccfg)
	if res == nil {
		return nil, err
	}
	return &Outcome{Detected: res.Rejected(), Rounds: res.Stats.Rounds, Bandwidth: bandwidth, Stats: res.Stats}, err
}
