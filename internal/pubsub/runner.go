package pubsub

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
	"adaptivegossip/internal/transport"
)

// RunnerConfig drives a Peer in real time.
type RunnerConfig struct {
	// Peer is the state machine the runner owns; do not touch it after
	// Start except through Do.
	Peer *Peer
	// Transport carries gossip for all of the peer's topics.
	Transport transport.Transport
	// Period is the gossip round interval.
	Period time.Duration
	// PhaseSeed randomizes the initial tick phase.
	PhaseSeed uint64
	// Metrics, when non-nil, receives wall-clock tick and receive
	// processing durations (nanoseconds).
	Metrics *observe.RunnerMetrics
}

// Runner owns a Peer: one goroutine serializes ticks, receives and
// commands, mirroring internal/runtime.Runner for single-group nodes,
// including its synchronous receive hand-off: the transport handler
// returns only once the loop has processed the message.
type Runner struct {
	peer    *Peer
	tr      transport.Transport
	period  time.Duration
	phase   time.Duration
	metrics *observe.RunnerMetrics // nil = off

	inbox chan *gossip.Message // unbuffered hand-off from the handler
	acked chan struct{}        // loop → handler: the message is processed
	cmds  chan func(*Peer)
	stop  chan struct{}
	done  chan struct{}

	startOnce sync.Once
	stopOnce  sync.Once
	started   atomic.Bool

	sendErrors atomic.Uint64
}

// NewRunner wires the runner and installs the transport handler.
func NewRunner(cfg RunnerConfig) (*Runner, error) {
	if cfg.Peer == nil {
		return nil, fmt.Errorf("pubsub: peer must not be nil")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("pubsub: transport must not be nil")
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("pubsub: period must be positive, got %v", cfg.Period)
	}
	seed := cfg.PhaseSeed
	if seed == 0 {
		for _, b := range []byte(cfg.Peer.ID()) {
			seed = seed*131 + uint64(b)
		}
		seed++
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x517CC1B7))
	r := &Runner{
		peer:    cfg.Peer,
		tr:      cfg.Transport,
		period:  cfg.Period,
		phase:   time.Duration(rng.Int64N(int64(cfg.Period))),
		metrics: cfg.Metrics,
		inbox:   make(chan *gossip.Message),
		acked:   make(chan struct{}),
		cmds:    make(chan func(*Peer)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	r.tr.SetHandler(r.handoff)
	return r, nil
}

// handoff is the transport handler: it passes msg to the loop and
// returns once the loop has processed it, or at once after Stop (see
// runtime.Runner's hand-off).
func (r *Runner) handoff(msg *gossip.Message) {
	select {
	case r.inbox <- msg:
		<-r.acked
	case <-r.stop:
	}
}

// Start launches the peer loop. Idempotent.
func (r *Runner) Start() {
	r.startOnce.Do(func() {
		r.started.Store(true)
		go r.loop()
	})
}

// Stop terminates the loop and waits for it. Safe to call repeatedly
// and before Start. Like runtime.Runner.Stop, it releases handlers
// waiting in the hand-off; stop the runner before closing a started
// transport.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	if r.started.Load() {
		<-r.done
	}
}

func (r *Runner) loop() {
	defer close(r.done)
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
			cmd(r.peer)
		}
	}
	ticker := time.NewTicker(r.period)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			// transport.SendGroups coalesces each topic's shared round
			// message into one SendMany (encode-once transports pay per
			// round, not per fanout target) and copies for transports
			// not marked ScratchSafe.
			now := time.Now()
			_, failed := transport.SendGroups(r.tr, r.peer.Tick(now))
			r.sendErrors.Add(uint64(failed))
			if r.metrics != nil {
				r.metrics.TickNanos.ObserveInt(int64(time.Since(now)))
			}
		case msg := <-r.inbox:
			r.receive(msg)
			r.acked <- struct{}{}
		case cmd := <-r.cmds:
			cmd(r.peer)
		}
	}
}

// receive processes one inbound message, timing it when instrumented.
func (r *Runner) receive(msg *gossip.Message) {
	now := time.Now()
	r.peer.Receive(msg, now)
	if r.metrics != nil {
		r.metrics.ReceiveNanos.ObserveInt(int64(time.Since(now)))
	}
}

// Do runs fn serialized with the loop, reporting false after Stop.
func (r *Runner) Do(fn func(*Peer)) bool {
	if !r.started.Load() {
		return false
	}
	doneCh := make(chan struct{})
	select {
	case r.cmds <- func(p *Peer) { fn(p); close(doneCh) }:
		<-doneCh
		return true
	case <-r.done:
		return false
	}
}

// Subscribe joins a topic from outside the loop.
func (r *Runner) Subscribe(topic Topic, peers gossip.PeerSampler) error {
	err := fmt.Errorf("pubsub: runner stopped")
	r.Do(func(p *Peer) { err = p.Subscribe(topic, peers) })
	return err
}

// Unsubscribe leaves a topic from outside the loop.
func (r *Runner) Unsubscribe(topic Topic) error {
	err := fmt.Errorf("pubsub: runner stopped")
	r.Do(func(p *Peer) { err = p.Unsubscribe(topic) })
	return err
}

// Publish broadcasts on a topic, reporting admission.
func (r *Runner) Publish(topic Topic, payload []byte) (bool, error) {
	var admitted bool
	err := fmt.Errorf("pubsub: runner stopped")
	r.Do(func(p *Peer) {
		_, admitted, err = p.Publish(topic, payload, time.Now())
	})
	return admitted, err
}

// State snapshots all subscriptions.
func (r *Runner) State() []TopicState {
	var out []TopicState
	r.Do(func(p *Peer) { out = p.State() })
	return out
}
