// Package pubsub implements the motivating scenario of the paper's
// introduction: topic-based publish/subscribe where each topic maps to
// its own gossip broadcast group, nodes subscribe to several topics,
// and every node must divide its fixed buffer budget among its current
// subscriptions. Each subscription change re-splits the budget, the
// per-topic minBuff estimates pick the change up from gossip headers,
// and publishers' allowed rates re-converge — with no coordination
// beyond the adaptation mechanism itself.
//
// The topics of one node are groups of its runtime.Runner, tagged with
// the topic name; this package holds the budget-split policy.
package pubsub

import (
	"fmt"
	"sort"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/runtime"
)

// Topic names a broadcast group.
type Topic string

// DeliverFunc receives each event of a subscribed topic exactly once.
type DeliverFunc func(topic Topic, ev gossip.Event)

// PeerConfig assembles a pub/sub peer.
type PeerConfig struct {
	// Runner hosts the peer's topics, one group per topic.
	Runner *runtime.Runner
	// BufferBudget is the total number of events this node can buffer
	// across all subscribed topics. Subscribe splits it evenly.
	BufferBudget int
	// Node is the protocol configuration every topic's node is built
	// from. Subscribe sets Peers and Deliver per topic; the budget
	// drives Gossip.MaxEvents. Its RNG, metrics and tracer are shared
	// by all topics.
	Node core.NodeConfig
	// Deliver observes deliveries (optional).
	Deliver DeliverFunc
}

// Peer is one node's pub/sub endpoint: an independent broadcast group
// per subscribed topic on the node's runner, sharing one buffer budget
// and one identity. Its methods run through the runner's loop and fail
// when the runner is not running.
type Peer struct {
	cfg PeerConfig
}

// NewPeer validates the configuration and returns an unsubscribed peer.
func NewPeer(cfg PeerConfig) (*Peer, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("pubsub: runner must not be nil")
	}
	if cfg.Node.ID != cfg.Runner.ID() {
		return nil, fmt.Errorf("pubsub: peer id %q on the runner of %q", cfg.Node.ID, cfg.Runner.ID())
	}
	if cfg.BufferBudget <= 0 {
		return nil, fmt.Errorf("pubsub: buffer budget must be positive, got %d", cfg.BufferBudget)
	}
	if cfg.Node.RNG == nil {
		return nil, fmt.Errorf("pubsub: rng must not be nil")
	}
	probe := cfg.Node.Gossip
	probe.MaxEvents = cfg.BufferBudget
	if probe.MaxEventIDs == 0 {
		probe.MaxEventIDs = gossip.DefaultIDCacheMult * probe.MaxEvents
	}
	if err := probe.Validate(); err != nil {
		return nil, fmt.Errorf("pubsub: %w", err)
	}
	if cfg.Node.Adaptive {
		if err := cfg.Node.Core.Validate(); err != nil {
			return nil, fmt.Errorf("pubsub: %w", err)
		}
	}
	return &Peer{cfg: cfg}, nil
}

// do runs fn in the runner's loop, returning its error, or an error
// when the runner is not running.
func (p *Peer) do(fn func(*runtime.Groups) error) error {
	err := fmt.Errorf("pubsub: runner stopped")
	p.cfg.Runner.Do(func(g *runtime.Groups) { err = fn(g) })
	return err
}

// Subscribe joins a topic's broadcast group, drawing gossip targets for
// it from peers. The buffer budget is re-split across all
// subscriptions, which the per-topic adaptation mechanisms observe as
// capacity changes — exactly the dynamic the paper's introduction
// motivates.
func (p *Peer) Subscribe(topic Topic, peers gossip.PeerSampler) error {
	if topic == "" {
		return fmt.Errorf("pubsub: topic must not be empty")
	}
	if peers == nil {
		return fmt.Errorf("pubsub: peer sampler must not be nil")
	}
	cfg := p.cfg.Node
	cfg.Gossip.MaxEvents = p.cfg.BufferBudget // placeholder; rebalance sets the real split
	cfg.Peers = peers
	cfg.Deliver = nil
	if fn := p.cfg.Deliver; fn != nil {
		cfg.Deliver = func(ev gossip.Event) { fn(topic, ev) }
	}
	return p.do(func(g *runtime.Groups) error {
		if g.Node(string(topic)) != nil {
			return fmt.Errorf("pubsub: already subscribed to %q", topic)
		}
		node, err := core.NewAdaptiveNode(cfg)
		if err != nil {
			return fmt.Errorf("pubsub: subscribe %q: %w", topic, err)
		}
		if err := g.Add(string(topic), node); err != nil {
			return err
		}
		return p.rebalance(g)
	})
}

// Unsubscribe leaves a topic; the freed budget returns to the remaining
// subscriptions.
func (p *Peer) Unsubscribe(topic Topic) error {
	return p.do(func(g *runtime.Groups) error {
		if !g.Remove(string(topic)) {
			return fmt.Errorf("pubsub: not subscribed to %q", topic)
		}
		return p.rebalance(g)
	})
}

// rebalance splits the budget evenly across the subscribed topics, at
// least one event each.
func (p *Peer) rebalance(g *runtime.Groups) error {
	topics := g.List()
	if len(topics) == 0 {
		return nil
	}
	per := max(p.cfg.BufferBudget/len(topics), 1)
	for _, t := range topics {
		if err := t.Node.SetBufferCapacity(per); err != nil {
			return fmt.Errorf("pubsub: rebalance %q: %w", t.Tag, err)
		}
	}
	return nil
}

// Publish broadcasts payload on a subscribed topic. The bool reports
// token-bucket admission.
func (p *Peer) Publish(topic Topic, payload []byte) (bool, error) {
	admitted := false
	err := p.do(func(g *runtime.Groups) error {
		node := g.Node(string(topic))
		if node == nil {
			return fmt.Errorf("pubsub: not subscribed to %q", topic)
		}
		_, admitted = node.Publish(payload, time.Now())
		return nil
	})
	return admitted, err
}

// TopicState is a per-topic snapshot.
type TopicState struct {
	Topic       Topic
	BufferCap   int
	BufferLen   int
	AllowedRate float64
	AvgAge      float64
	MinBuff     int
	Gossip      gossip.NodeStats
	Adaptive    core.AdaptiveStats
}

// State snapshots every subscription, sorted by topic: empty with no
// subscriptions, nil when the runner is not running.
func (p *Peer) State() []TopicState {
	var out []TopicState
	p.do(func(g *runtime.Groups) error {
		out = make([]TopicState, 0, len(g.List()))
		for _, t := range g.List() {
			out = append(out, TopicState{
				Topic:       Topic(t.Tag),
				BufferCap:   t.Node.BufferCapacity(),
				BufferLen:   t.Node.BufferLen(),
				AllowedRate: t.Node.AllowedRate(),
				AvgAge:      t.Node.AvgAge(),
				MinBuff:     t.Node.MinBuffEstimate(),
				Gossip:      t.Node.GossipStats(),
				Adaptive:    t.Node.Stats(),
			})
		}
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Topic < out[j].Topic })
	return out
}
