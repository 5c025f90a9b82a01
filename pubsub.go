package adaptivegossip

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"

	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/pubsub"
)

// Pub/sub re-exports.
type (
	// Topic names a broadcast group in the pub/sub layer.
	Topic = pubsub.Topic
	// TopicState is a per-subscription snapshot.
	TopicState = pubsub.TopicState
)

// PubSub is an in-process publish/subscribe group — the paper's
// motivating scenario as an API. Each topic is an independent adaptive
// broadcast group whose members are exactly the current subscribers;
// each member splits one buffer budget across its subscriptions, so
// every subscribe/unsubscribe shifts the resources the adaptation
// mechanism sees. Deliveries carry the Topic in both the WithDeliver
// callback and the Events stream.
type PubSub struct {
	g     *group
	peers []*pubsub.Peer

	mu     sync.Mutex
	topics map[Topic]*membership.Registry // each topic's subscribers
}

// NewPubSub builds n peers, each with the given total buffer budget,
// with the shared option set (WithSeed, WithDeliver, WithTransport,
// WithNamePrefix). No peer is subscribed to anything initially.
// Config.Recovery applies per topic. Config.Failure and
// Config.Observability.HealthDigests are refused: both are per-member
// mechanisms with no per-topic form yet.
func NewPubSub(n, bufferBudget int, cfg Config, opts ...Option) (*PubSub, error) {
	o, err := applyOptions(facadePubSub, groupOptions{seed: 1, prefix: "peer-"}, opts)
	switch {
	case err != nil:
	case n < 2:
		err = fmt.Errorf("adaptivegossip: pub/sub group needs at least 2 peers, got %d", n)
	case bufferBudget <= 0:
		err = fmt.Errorf("adaptivegossip: buffer budget must be positive, got %d", bufferBudget)
	case cfg.Failure.Enabled:
		err = fmt.Errorf("adaptivegossip: Config.Failure does not apply to %s", o.kind)
	case cfg.Observability.HealthDigests:
		err = fmt.Errorf("adaptivegossip: Config.Observability.HealthDigests does not apply to %s", o.kind)
	}
	// A peer's budget is its buffer capacity, split across its topics.
	cfg.BufferCapacity = bufferBudget
	g, err := newGroup(o, err, cfg, groupShape{
		names:  memberNames(o.prefix, n),
		fabric: func() (Transport, error) { return NewMemTransport(WithTransportSeed(o.seed + 0x9A9A)) },
		rng: func(i int) *rand.Rand {
			return rand.New(rand.NewPCG(uint64(o.seed), uint64(i)+1))
		},
		phaseSeed: func(i int) uint64 { return uint64(o.seed)*48271 + uint64(i) + 1 },
		tagged:    true,
	})
	if err != nil {
		return nil, err
	}
	c := &PubSub{g: g, topics: make(map[Topic]*membership.Registry)}
	for i, r := range g.runners {
		name := g.names[i]
		peer, err := pubsub.NewPeer(pubsub.PeerConfig{
			Runner:       r,
			BufferBudget: bufferBudget,
			Node:         g.configs[i],
			Deliver: func(topic Topic, ev Event) {
				g.publish(Delivery{Node: name, Topic: topic, Event: ev})
			},
		})
		if err != nil {
			g.close()
			return nil, err
		}
		c.peers = append(c.peers, peer)
	}
	return c, nil
}

// Len reports the number of peers.
func (c *PubSub) Len() int { return len(c.g.runners) }

// Peers returns the peer names in index order.
func (c *PubSub) Peers() []NodeID {
	return append([]NodeID(nil), c.g.names...)
}

// Start launches every peer. Cancelling ctx closes the group; a closed
// group cannot be restarted. Idempotent while open — every context
// passed to Start is watched, so cancelling any of them closes the
// group. A transient endpoint failure may be retried: already started
// endpoints are not started twice.
func (c *PubSub) Start(ctx context.Context) error { return c.g.start(ctx) }

// Close terminates every peer, the fabric and every Events stream.
// Idempotent; later calls return nil.
func (c *PubSub) Close() error { return c.g.close() }

// Events returns a stream of every delivery in the group, with Topic
// set. From subscription onward the stream sees every delivery the
// WithDeliver callback sees; it is closed when ctx is cancelled or
// the group is closed. A subscriber that falls more than
// DefaultEventStreamBuffer behind loses deliveries (counted in
// Stats.StreamDropped).
func (c *PubSub) Events(ctx context.Context) <-chan Delivery {
	return c.g.hub.subscribe(ctx)
}

func (c *PubSub) registry(topic Topic) *membership.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	reg, ok := c.topics[topic]
	if !ok {
		reg = membership.NewRegistry()
		c.topics[topic] = reg
	}
	return reg
}

// Subscribe joins peer i to a topic: the peer becomes a gossip target
// for the topic's other subscribers and re-splits its buffer budget.
func (c *PubSub) Subscribe(i int, topic Topic) error {
	if err := c.g.check(i); err != nil {
		return err
	}
	reg := c.registry(topic)
	if err := c.peers[i].Subscribe(topic, reg); err != nil {
		return err
	}
	reg.Add(c.g.names[i])
	return nil
}

// Unsubscribe removes peer i from a topic, returning its budget share
// to the remaining subscriptions.
func (c *PubSub) Unsubscribe(i int, topic Topic) error {
	if err := c.g.check(i); err != nil {
		return err
	}
	if err := c.peers[i].Unsubscribe(topic); err != nil {
		return err
	}
	c.registry(topic).Remove(c.g.names[i])
	return nil
}

// Publish broadcasts payload from peer i on topic, reporting admission.
func (c *PubSub) Publish(i int, topic Topic, payload []byte) (bool, error) {
	if err := c.g.check(i); err != nil {
		return false, err
	}
	return c.peers[i].Publish(topic, payload)
}

// State snapshots peer i's subscriptions.
func (c *PubSub) State(i int) ([]TopicState, error) {
	if err := c.g.check(i); err != nil {
		return nil, err
	}
	return c.peers[i].State(), nil
}

// Stats aggregates the unified counter snapshot across all peers and
// topics: Nodes counts peers, the rate triple summarizes per-topic
// allowances.
func (c *PubSub) Stats() Stats { return c.g.stats() }

// ClusterHealth returns the group's converged health view — the same
// shape the other facades expose, so monitoring code is deployment
// agnostic. Health digests are a per-member mechanism with no
// per-topic form yet: NewPubSub refuses them, so the view is always
// empty.
func (c *PubSub) ClusterHealth() []MemberHealth { return c.g.clusterHealth() }

// DebugAddr returns the bound address of the debug HTTP listener, or
// "" when Config.Observability.DebugAddr was empty.
func (c *PubSub) DebugAddr() string { return c.g.obs.debugAddr() }
