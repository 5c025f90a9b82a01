// Package runtime drives protocol nodes in real time: one goroutine per
// node owns the (single-threaded) state machine, fed by a gossip
// ticker, the transport's inbox and a command queue. This is the
// "prototype implementation" half of the paper's evaluation — the same
// state machine the simulator drives, under real concurrency, timers
// and a real wire.
package runtime

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/failure"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/health"
	"adaptivegossip/internal/observe"
	"adaptivegossip/internal/recovery"
	"adaptivegossip/internal/transport"
)

// Config assembles a Runner.
type Config struct {
	// Node is the protocol state machine the runner owns. The caller
	// must not touch it after Start; use Do for serialized access.
	Node *core.AdaptiveNode
	// Transport carries gossip to and from peers. The runner installs
	// its handler.
	Transport transport.Transport
	// Period is the gossip round interval T.
	Period time.Duration
	// PhaseSeed randomizes the initial tick phase in [0, Period) so a
	// cluster started at once does not tick in lockstep. Zero seeds
	// from the node id.
	PhaseSeed uint64
	// Metrics, when non-nil, receives wall-clock tick and receive
	// processing durations (nanoseconds). May be shared across runners.
	Metrics *observe.RunnerMetrics
}

// Stats counts runner activity.
type Stats struct {
	Ticks         uint64
	SendErrors    uint64
	MessagesMoved uint64
}

// Runner drives one node. Create with NewRunner, then Start; Stop waits
// for the loop to exit.
//
// Receives are handed off synchronously: the transport handler passes
// the message to the loop and blocks until the loop has processed it,
// so a transport may reuse the message once its handler returns (the
// UDP transport decodes into reused scratch) and receive back-pressure
// reaches the transport's own bounded queue. Protocol work and the
// delivery callbacks still run on the loop goroutine only.
type Runner struct {
	node    *core.AdaptiveNode
	tr      transport.Transport
	period  time.Duration
	phase   time.Duration
	metrics *observe.RunnerMetrics // nil = off

	inbox chan *gossip.Message // unbuffered hand-off from the handler
	acked chan struct{}        // loop → handler: the message is processed
	cmds  chan func(*core.AdaptiveNode)
	stop  chan struct{}
	done  chan struct{}

	// sender amortizes the per-round grouping scratch (only the loop
	// goroutine touches it).
	sender transport.GroupSender

	startOnce sync.Once
	stopOnce  sync.Once
	started   atomic.Bool

	ticks      atomic.Uint64
	sendErrors atomic.Uint64
	moved      atomic.Uint64
}

// NewRunner wires a runner and installs the transport handler. The
// runner does not tick until Start.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Node == nil {
		return nil, fmt.Errorf("runtime: node must not be nil")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("runtime: transport must not be nil")
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("runtime: period must be positive, got %v", cfg.Period)
	}
	seed := cfg.PhaseSeed
	if seed == 0 {
		for _, b := range []byte(cfg.Node.ID()) {
			seed = seed*131 + uint64(b)
		}
		seed++
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xA5A5A5A5))
	r := &Runner{
		node:    cfg.Node,
		tr:      cfg.Transport,
		period:  cfg.Period,
		phase:   time.Duration(rng.Int64N(int64(cfg.Period))),
		metrics: cfg.Metrics,
		inbox:   make(chan *gossip.Message),
		acked:   make(chan struct{}),
		cmds:    make(chan func(*core.AdaptiveNode)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	r.tr.SetHandler(r.handoff)
	return r, nil
}

// ID returns the owned node's identifier.
func (r *Runner) ID() gossip.NodeID { return r.node.ID() }

// handoff is the transport handler: it passes msg to the loop and
// returns once the loop has processed it, or at once after Stop. A
// message the loop accepted is always acknowledged, so Stop cannot
// strand a handler, and no loop reads msg after handoff returns.
func (r *Runner) handoff(msg *gossip.Message) {
	select {
	case r.inbox <- msg:
		<-r.acked
	case <-r.stop:
	}
}

// Start launches the node loop. Calling Start twice is a no-op.
func (r *Runner) Start() {
	r.startOnce.Do(func() {
		r.started.Store(true)
		go r.loop()
	})
}

// Stop terminates the loop and waits for it to exit. Safe to call
// multiple times and before Start. It also releases transport handlers
// waiting in the hand-off, so stop the runner before closing a started
// transport: the transport's Close waits for its handler calls.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	if r.started.Load() {
		<-r.done
	}
}

func (r *Runner) loop() {
	defer close(r.done)
	// Random initial phase desynchronizes cluster-wide ticks. Inbox and
	// command traffic is serviced while waiting — it must not cut the
	// phase short, or a cluster started under load ticks in lockstep.
	phase := time.NewTimer(r.phase)
	defer phase.Stop()
waitPhase:
	for {
		select {
		case <-phase.C:
			break waitPhase
		case <-r.stop:
			return
		case msg := <-r.inbox:
			r.receive(msg)
			r.acked <- struct{}{}
		case cmd := <-r.cmds:
			cmd(r.node)
		}
	}

	ticker := time.NewTicker(r.period)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.tick()
		case msg := <-r.inbox:
			r.receive(msg)
			r.acked <- struct{}{}
		case cmd := <-r.cmds:
			cmd(r.node)
		}
	}
}

//gossip:hotpath
func (r *Runner) tick() {
	r.ticks.Add(1)
	now := time.Now()
	r.send(r.node.Tick(now))
	if r.metrics != nil {
		r.metrics.TickNanos.ObserveInt(int64(time.Since(now)))
	}
}

// receive processes one inbound message and transmits any recovery
// control traffic (retransmission responses) it triggered.
//
//gossip:hotpath
func (r *Runner) receive(msg *gossip.Message) {
	now := time.Now()
	r.send(r.node.Receive(msg, now))
	if r.metrics != nil {
		r.metrics.ReceiveNanos.ObserveInt(int64(time.Since(now)))
	}
}

// send transmits a batch of outgoings through the runner's GroupSender:
// the round's shared gossip message collapses into one SendMany so
// encode-once transports pay the serialization cost once per round,
// and non-ScratchSafe transports get copies, decoupling them from the
// node's scratch reuse. The grouping scratch is reused across rounds.
func (r *Runner) send(outs []gossip.Outgoing) {
	sent, failed := r.sender.SendGroups(r.tr, outs)
	r.moved.Add(uint64(sent))
	r.sendErrors.Add(uint64(failed))
}

// Do runs fn inside the node loop, serialized with ticks and receives,
// and waits for it to finish. It reports false if the runner stopped
// before fn could run.
func (r *Runner) Do(fn func(*core.AdaptiveNode)) bool {
	if !r.started.Load() {
		return false
	}
	doneCh := make(chan struct{})
	wrapped := func(n *core.AdaptiveNode) {
		fn(n)
		close(doneCh)
	}
	select {
	case r.cmds <- wrapped:
		<-doneCh
		return true
	case <-r.done:
		return false
	}
}

// Publish submits a broadcast through the node's admission control. It
// reports whether the message was admitted (false also when the runner
// is stopped).
func (r *Runner) Publish(payload []byte) bool {
	admitted := false
	r.Do(func(n *core.AdaptiveNode) {
		_, admitted = n.Publish(payload, time.Now())
	})
	return admitted
}

// SetBufferCapacity resizes the node's buffer from outside the loop.
func (r *Runner) SetBufferCapacity(capacity int) error {
	err := fmt.Errorf("runtime: runner stopped")
	ok := r.Do(func(n *core.AdaptiveNode) {
		err = n.SetBufferCapacity(capacity)
	})
	if !ok {
		return fmt.Errorf("runtime: runner stopped")
	}
	return err
}

// NodeSnapshot is a point-in-time view of the node's adaptation state.
type NodeSnapshot struct {
	AllowedRate float64
	AvgAge      float64
	MinBuff     int
	BufferLen   int
	BufferCap   int
	Gossip      gossip.NodeStats
	Adaptive    core.AdaptiveStats
	Recovery    recovery.Stats
	Failure     failure.Stats
	Health      health.Stats
}

// Snapshot captures the node state, serialized with the loop. The zero
// snapshot is returned after Stop.
func (r *Runner) Snapshot() NodeSnapshot {
	var snap NodeSnapshot
	r.Do(func(n *core.AdaptiveNode) {
		snap = NodeSnapshot{
			AllowedRate: n.AllowedRate(),
			AvgAge:      n.AvgAge(),
			MinBuff:     n.MinBuffEstimate(),
			BufferLen:   n.BufferLen(),
			BufferCap:   n.BufferCapacity(),
			Gossip:      n.GossipStats(),
			Adaptive:    n.Stats(),
			Recovery:    n.RecoveryStats(),
			Failure:     n.FailureStats(),
			Health:      n.HealthStats(),
		}
	})
	return snap
}

// ClusterHealth returns the node's converged view of the cluster's
// health digests, serialized with the loop (nil when dissemination is
// disabled or the runner has stopped).
func (r *Runner) ClusterHealth() []health.MemberHealth {
	var view []health.MemberHealth
	r.Do(func(n *core.AdaptiveNode) { view = n.ClusterHealth() })
	return view
}

// ClusterDeliverHops returns the cluster-merged delivery-hop histogram,
// serialized with the loop (zero when dissemination is disabled or the
// runner has stopped).
func (r *Runner) ClusterDeliverHops() observe.HistogramSnapshot {
	var snap observe.HistogramSnapshot
	r.Do(func(n *core.AdaptiveNode) { snap = n.ClusterDeliverHops() })
	return snap
}

// Stats returns the runner's counters.
func (r *Runner) Stats() Stats {
	return Stats{
		Ticks:         r.ticks.Load(),
		SendErrors:    r.sendErrors.Load(),
		MessagesMoved: r.moved.Load(),
	}
}
