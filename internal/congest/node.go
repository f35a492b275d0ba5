package congest

import (
	"fmt"
	"math/rand"

	"subgraph/internal/bitio"
)

// Decision is a node's output in a decision problem. Following
// Definition 1, the network "detects" H when at least one node rejects;
// in an H-free execution every node must accept.
type Decision int8

const (
	// Accept is the default decision.
	Accept Decision = iota
	// Reject is latched: once a node rejects it stays rejected.
	Reject
)

func (d Decision) String() string {
	if d == Reject {
		return "reject"
	}
	return "accept"
}

// Message is a payload in transit over a directed edge.
type Message struct {
	From, To NodeID
	Payload  bitio.BitString
	// Fault is set only on transcript entries, recording the adversary's
	// action on this message (see FaultTag). Delivered inbox copies always
	// carry FaultNone — a node cannot detect corruption or observe drops.
	Fault FaultTag
}

// Node is one participant's program. The runner creates one instance per
// vertex via the factory passed to Run; instances must not share mutable
// state (the parallel engine calls Round concurrently).
type Node interface {
	// Init is called once before the first round.
	Init(env *Env)
	// Round is called once per round with the messages delivered at the
	// start of the round (those sent in the previous round), sorted by
	// sender ID. The node emits messages through env.Send / env.Broadcast.
	Round(env *Env, inbox []Message)
}

// Env is a node's interface to the network during a run. All methods are
// local-state only, so concurrent Round calls on different nodes are safe.
type Env struct {
	id        NodeID
	n         int
	b         int
	round     int
	neighbors []NodeID   // sorted (ties broken by vertex)
	nbrVs     []int32    // vertex index of each entry in neighbors
	rng       *rand.Rand // built on first Rand() call; see rngSrc
	rngSrc    splitMix64
	broadcast bool

	out      []outMsg
	halted   bool
	crashed  bool
	decision Decision
	err      error

	// capture, when non-nil, receives queued messages instead of out —
	// the ResilientNode decorator's interception point for wrapping the
	// inner node's traffic in ack/retransmit frames.
	capture *[]outMsg
}

// outMsg is a message with its recipient resolved to a vertex index, which
// is how the runner routes messages (identifiers may be duplicated in the
// Section 5 input distribution, so IDs alone cannot route). port is the
// index into the sender's ID-sorted neighbor list; the runner uses it to
// key the flat per-directed-edge bandwidth accumulators.
type outMsg struct {
	toV  int
	port int32
	msg  Message
}

// queue routes a message to the capture hook if installed, else to the
// runner's outbox.
func (e *Env) queue(m outMsg) {
	if e.capture != nil {
		*e.capture = append(*e.capture, m)
		return
	}
	e.out = append(e.out, m)
}

// ID returns this node's identifier.
func (e *Env) ID() NodeID { return e.id }

// N returns the number of nodes in the network (known to all nodes, as is
// standard in CONGEST algorithms that depend on n).
func (e *Env) N() int { return e.n }

// B returns the bandwidth per edge per round; 0 means unbounded (LOCAL).
func (e *Env) B() int { return e.b }

// Degree returns the number of incident edges.
func (e *Env) Degree() int { return len(e.neighbors) }

// Neighbors returns the sorted identifiers of adjacent nodes. The caller
// must not modify the slice.
func (e *Env) Neighbors() []NodeID { return e.neighbors }

// HasNeighbor reports whether id is adjacent.
func (e *Env) HasNeighbor(id NodeID) bool {
	lo, hi := 0, len(e.neighbors)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.neighbors[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(e.neighbors) && e.neighbors[lo] == id
}

// Round returns the current round number (1-based; Init sees round 0).
func (e *Env) Round() int { return e.round }

// splitMix64 is a rand.Source64 with O(1) seeding. The default math/rand
// source fills a 607-word LFSR at seed time (~2µs per node on the CI
// machine), which profiled at ~50% of a whole randomized run: the runner
// seeds one source per node per run, and most runs are short. SplitMix64
// seeds by storing one word and passes BigCrush; it is the generator
// recommended for seeding xoshiro-family states in Blackman & Vigna,
// "Scrambled linear pseudorandom number generators" (2018). The stream a
// node observes is a pure function of (run seed, vertex), as before —
// only the generator changed, and no test expectation encodes the old
// LFSR's output.
type splitMix64 struct{ s uint64 }

func (s *splitMix64) Uint64() uint64 {
	s.s += 0x9e3779b97f4a7c15
	z := s.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitMix64) Seed(seed int64) { s.s = uint64(seed) }

// Rand returns this node's private random source, seeded deterministically
// from the run seed and the node's position so both engines agree. The
// *rand.Rand wrapper is built lazily on first call, so algorithms that
// never draw randomness pay nothing. Laziness is invisible to determinism
// — the seed, and hence the stream, is fixed at setup — and each Env is
// stepped by exactly one goroutine per round, so no lock is needed.
func (e *Env) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(&e.rngSrc)
	}
	return e.rng
}

// Send queues payload for delivery to neighbor `to` at the start of the
// next round. Bandwidth is enforced per directed edge per round after the
// node's Round call returns. If the node is mid-run in round 0 (Init) or
// `to` is not a unique neighbor identifier, the run fails with an error.
func (e *Env) Send(to NodeID, payload bitio.BitString) {
	if e.err != nil {
		return
	}
	if e.round == 0 {
		e.fail(fmt.Errorf("node %d: send during Init", e.id))
		return
	}
	if e.broadcast {
		e.fail(fmt.Errorf("node %d: Send is unavailable in broadcast mode", e.id))
		return
	}
	i := e.neighborIndex(to)
	if i < 0 {
		e.fail(fmt.Errorf("node %d: send to non-neighbor %d", e.id, to))
		return
	}
	if i+1 < len(e.neighbors) && e.neighbors[i+1] == to {
		e.fail(fmt.Errorf("node %d: send to ambiguous duplicate id %d", e.id, to))
		return
	}
	e.queue(outMsg{toV: int(e.nbrVs[i]), port: int32(i), msg: Message{From: e.id, To: to, Payload: payload}})
}

// SendPort queues payload on the port-th incident edge (ports are indices
// into Neighbors()). This addresses neighbors positionally, which remains
// well-defined under duplicate identifiers.
func (e *Env) SendPort(port int, payload bitio.BitString) {
	if e.err != nil {
		return
	}
	if e.round == 0 {
		e.fail(fmt.Errorf("node %d: send during Init", e.id))
		return
	}
	if e.broadcast {
		e.fail(fmt.Errorf("node %d: SendPort is unavailable in broadcast mode", e.id))
		return
	}
	if port < 0 || port >= len(e.neighbors) {
		e.fail(fmt.Errorf("node %d: port %d out of range [0,%d)", e.id, port, len(e.neighbors)))
		return
	}
	e.queue(outMsg{toV: int(e.nbrVs[port]), port: int32(port), msg: Message{From: e.id, To: e.neighbors[port], Payload: payload}})
}

// Broadcast queues payload for delivery to every neighbor.
func (e *Env) Broadcast(payload bitio.BitString) {
	if e.err != nil {
		return
	}
	if e.round == 0 {
		e.fail(fmt.Errorf("node %d: send during Init", e.id))
		return
	}
	for i, nb := range e.neighbors {
		e.queue(outMsg{toV: int(e.nbrVs[i]), port: int32(i), msg: Message{From: e.id, To: nb, Payload: payload}})
	}
}

// Port returns the port (index into Neighbors()) of neighbor id, or -1
// if id is not adjacent. Under duplicate identifiers it returns the first
// port carrying id, so a per-port table keyed through Port collapses
// senders that share an identifier, as a table keyed by ID would.
func (e *Env) Port(id NodeID) int { return e.neighborIndex(id) }

// neighborIndex returns the first index of id in the sorted neighbor list,
// or -1.
func (e *Env) neighborIndex(id NodeID) int {
	lo, hi := 0, len(e.neighbors)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.neighbors[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(e.neighbors) && e.neighbors[lo] == id {
		return lo
	}
	return -1
}

// Accept sets the node's decision to accept (the default) unless it has
// already latched reject.
func (e *Env) Accept() {
	// Reject is permanent per Definition 1; Accept is a no-op after it.
}

// Reject latches the node's decision to reject.
func (e *Env) Reject() { e.decision = Reject }

// Decision returns the node's current decision.
func (e *Env) Decision() Decision { return e.decision }

// Halt stops the node: Round will not be called again. Pending outgoing
// messages from the current round are still delivered.
func (e *Env) Halt() { e.halted = true }

// Halted reports whether Halt has been called.
func (e *Env) Halted() bool { return e.halted }

func (e *Env) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// FuncNode adapts plain functions to the Node interface, convenient in
// tests and examples.
type FuncNode struct {
	OnInit  func(env *Env)
	OnRound func(env *Env, inbox []Message)
}

// Init implements Node.
func (f *FuncNode) Init(env *Env) {
	if f.OnInit != nil {
		f.OnInit(env)
	}
}

// Round implements Node.
func (f *FuncNode) Round(env *Env, inbox []Message) {
	if f.OnRound != nil {
		f.OnRound(env, inbox)
	}
}
