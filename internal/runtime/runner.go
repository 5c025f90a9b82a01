// Package runtime drives protocol nodes in real time: one goroutine per
// member owns the (single-threaded) state machines of the broadcast
// groups the member hosts, fed by a gossip ticker, the transport's
// inbox and a command queue. This is the
// "prototype implementation" half of the paper's evaluation — the same
// state machine the simulator drives, under real concurrency, timers
// and a real wire.
package runtime

import (
	"fmt"
	"math/rand/v2"
	"slices"
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
	// Node, when non-nil, is installed as the runner's untagged group
	// (tag ""): the single broadcast group of a Node or Cluster member.
	// It must be the transport's member. The caller must not touch it
	// after Start; use Do for serialized access. A runner without one
	// hosts only the groups installed later through Do (a pub/sub
	// peer's topics).
	Node *core.AdaptiveNode
	// Transport carries gossip for every hosted group and names the
	// member (LocalID). The runner installs its handler.
	Transport transport.Transport
	// Period is the gossip round interval T.
	Period time.Duration
	// PhaseSeed randomizes the initial tick phase in [0, Period) so a
	// cluster started at once does not tick in lockstep. Zero seeds
	// from the member id.
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

// Group is one broadcast group a runner hosts: the protocol node and
// the tag its traffic carries in Message.Group.
type Group struct {
	Tag  string
	Node *core.AdaptiveNode
}

// Groups is a runner's group table, in installation order. It belongs
// to the runner's loop: use it only inside Do.
type Groups struct {
	list []Group
}

// List returns the hosted groups in installation order. The slice is
// the table itself: read it, do not modify or retain it.
func (g *Groups) List() []Group { return g.list }

// Node returns the node of the group tagged tag, or nil.
func (g *Groups) Node(tag string) *core.AdaptiveNode {
	if i := g.index(tag); i >= 0 {
		return g.list[i].Node
	}
	return nil
}

// index returns the position of the group tagged tag, or -1.
//
//gossip:hotpath
func (g *Groups) index(tag string) int {
	for i := range g.list {
		if g.list[i].Tag == tag {
			return i
		}
	}
	return -1
}

// Add installs node as the group tagged tag. Ticks run groups in
// installation order.
func (g *Groups) Add(tag string, node *core.AdaptiveNode) error {
	if node == nil {
		return fmt.Errorf("runtime: group %q: node must not be nil", tag)
	}
	if g.index(tag) >= 0 {
		return fmt.Errorf("runtime: group %q already installed", tag)
	}
	g.list = append(g.list, Group{Tag: tag, Node: node})
	return nil
}

// Remove uninstalls the group tagged tag, reporting whether it existed.
// Traffic for a removed tag is dropped.
func (g *Groups) Remove(tag string) bool {
	i := g.index(tag)
	if i < 0 {
		return false
	}
	g.list = slices.Delete(g.list, i, i+1)
	return true
}

// Runner drives one member: a table of broadcast groups keyed by the
// frame's group tag (Message.Group), all served by one goroutine. A
// tick runs every group's round; a received message goes to the group
// its tag names and is dropped when no group has that tag. Every
// message a group sends carries its tag. Create with NewRunner, then
// Start; Stop waits for the loop to exit.
//
// Receives are handed off synchronously: the transport handler passes
// the message to the loop and blocks until the loop has processed it,
// so a transport may reuse the message once its handler returns (the
// UDP transport decodes into reused scratch) and receive back-pressure
// reaches the transport's own bounded queue. Protocol work and the
// delivery callbacks still run on the loop goroutine only.
type Runner struct {
	id      gossip.NodeID
	groups  Groups // loop-owned
	tr      transport.Transport
	period  time.Duration
	phase   time.Duration
	metrics *observe.RunnerMetrics // nil = off

	inbox chan *gossip.Message // unbuffered hand-off from the handler
	acked chan struct{}        // loop → handler: the message is processed
	cmds  chan func(*Groups)
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
	if cfg.Transport == nil {
		return nil, fmt.Errorf("runtime: transport must not be nil")
	}
	id := cfg.Transport.LocalID()
	if id == "" {
		return nil, fmt.Errorf("runtime: transport has no member id")
	}
	if cfg.Node != nil && cfg.Node.ID() != id {
		return nil, fmt.Errorf("runtime: node %q on the transport of %q", cfg.Node.ID(), id)
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("runtime: period must be positive, got %v", cfg.Period)
	}
	seed := cfg.PhaseSeed
	if seed == 0 {
		for _, b := range []byte(id) {
			seed = seed*131 + uint64(b)
		}
		seed++
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xA5A5A5A5))
	r := &Runner{
		id:      id,
		tr:      cfg.Transport,
		period:  cfg.Period,
		phase:   time.Duration(rng.Int64N(int64(cfg.Period))),
		metrics: cfg.Metrics,
		inbox:   make(chan *gossip.Message),
		acked:   make(chan struct{}),
		cmds:    make(chan func(*Groups)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if cfg.Node != nil {
		r.groups.list = []Group{{Node: cfg.Node}}
	}
	r.tr.SetHandler(r.handoff)
	return r, nil
}

// ID returns the member's identifier.
func (r *Runner) ID() gossip.NodeID { return r.id }

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

// Start launches the member loop. Calling Start twice is a no-op.
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
			cmd(&r.groups)
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
			cmd(&r.groups)
		}
	}
}

// tick runs one gossip round of every group, in installation order.
//
//gossip:hotpath
func (r *Runner) tick() {
	r.ticks.Add(1)
	now := time.Now()
	for _, g := range r.groups.list {
		r.send(g.Tag, g.Node.Tick(now))
	}
	if r.metrics != nil {
		r.metrics.TickNanos.ObserveInt(int64(time.Since(now)))
	}
}

// receive hands one inbound message to the group its tag names and
// transmits any control traffic (recovery retransmissions, failure
// detector acks) it triggered. A tag no group has is dropped.
//
//gossip:hotpath
func (r *Runner) receive(msg *gossip.Message) {
	now := time.Now()
	if i := r.groups.index(msg.Group); i >= 0 {
		g := r.groups.list[i]
		r.send(g.Tag, g.Node.Receive(msg, now))
	}
	if r.metrics != nil {
		r.metrics.ReceiveNanos.ObserveInt(int64(time.Since(now)))
	}
}

// send tags a group's batch of outgoings with the group's tag — every
// distinct message, round gossip and control traffic alike — and
// transmits it through the runner's GroupSender: the round's shared
// gossip message collapses into one SendMany so encode-once transports
// pay the serialization cost once per round, and non-ScratchSafe
// transports get copies, decoupling them from the node's scratch
// reuse. The grouping scratch is reused across rounds.
//
//gossip:hotpath
func (r *Runner) send(tag string, outs []gossip.Outgoing) {
	for i := range outs {
		outs[i].Msg.Group = tag
	}
	sent, failed := r.sender.SendGroups(r.tr, outs)
	r.moved.Add(uint64(sent))
	r.sendErrors.Add(uint64(failed))
}

// Do runs fn inside the member loop with the group table, serialized
// with ticks and receives, and waits for it to finish. It reports false
// if the runner is not running (never started, or stopped) and fn did
// not run.
func (r *Runner) Do(fn func(*Groups)) bool {
	if !r.started.Load() {
		return false
	}
	doneCh := make(chan struct{})
	wrapped := func(g *Groups) {
		fn(g)
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

// untagged runs fn on the untagged group inside the loop. It reports
// false when the runner is not running or hosts no untagged group.
func (r *Runner) untagged(fn func(*core.AdaptiveNode)) bool {
	ran := false
	r.Do(func(g *Groups) {
		if n := g.Node(""); n != nil {
			fn(n)
			ran = true
		}
	})
	return ran
}

// Publish submits a broadcast through the untagged group's admission
// control. It reports whether the message was admitted (false also
// when the runner is stopped).
func (r *Runner) Publish(payload []byte) bool {
	admitted := false
	r.untagged(func(n *core.AdaptiveNode) {
		_, admitted = n.Publish(payload, time.Now())
	})
	return admitted
}

// SetBufferCapacity resizes the untagged group's buffer from outside
// the loop.
func (r *Runner) SetBufferCapacity(capacity int) error {
	var err error
	if !r.untagged(func(n *core.AdaptiveNode) { err = n.SetBufferCapacity(capacity) }) {
		return fmt.Errorf("runtime: runner stopped or hosts no untagged group")
	}
	return err
}

// NodeSnapshot is a point-in-time view of one group's adaptation state.
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

func snapshot(n *core.AdaptiveNode) NodeSnapshot {
	return NodeSnapshot{
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
}

// Snapshot captures the untagged group's state, serialized with the
// loop. The zero snapshot is returned after Stop.
func (r *Runner) Snapshot() NodeSnapshot {
	var snap NodeSnapshot
	r.untagged(func(n *core.AdaptiveNode) { snap = snapshot(n) })
	return snap
}

// Snapshots captures every group's state in installation order,
// serialized with the loop (nil after Stop).
func (r *Runner) Snapshots() []NodeSnapshot {
	var snaps []NodeSnapshot
	r.Do(func(g *Groups) {
		for _, gr := range g.list {
			snaps = append(snaps, snapshot(gr.Node))
		}
	})
	return snaps
}

// ClusterHealth returns the untagged group's converged view of the
// cluster's health digests, serialized with the loop (nil when
// dissemination is disabled, the runner has stopped or it hosts no
// untagged group).
func (r *Runner) ClusterHealth() []health.MemberHealth {
	var view []health.MemberHealth
	r.untagged(func(n *core.AdaptiveNode) { view = n.ClusterHealth() })
	return view
}

// Stats returns the runner's counters.
func (r *Runner) Stats() Stats {
	return Stats{
		Ticks:         r.ticks.Load(),
		SendErrors:    r.sendErrors.Load(),
		MessagesMoved: r.moved.Load(),
	}
}
