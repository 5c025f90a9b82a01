package adaptivegossip

import (
	"context"
	"fmt"
	"math/rand/v2"

	"adaptivegossip/internal/runtime"
)

// NodeSnapshot is a point-in-time view of one node's state.
type NodeSnapshot = runtime.NodeSnapshot

// Cluster is an in-process broadcast group: one goroutine-driven node
// per member, connected by a pluggable message fabric — the in-memory
// fabric by default, real loopback UDP (or any custom Transport) via
// WithTransport. It is the quickest way to exercise the protocol and
// the backbone of the examples.
type Cluster struct {
	g *group
}

// NewCluster builds an n-node cluster with the given configuration and
// the shared option set (WithSeed, WithDeliver, WithTransport,
// WithOnMemberChange, WithNamePrefix). Call Start to begin gossiping
// and Close to tear everything down.
func NewCluster(n int, cfg Config, opts ...Option) (*Cluster, error) {
	o, err := applyOptions(facadeCluster, groupOptions{seed: 1, prefix: "node-"}, opts)
	if err == nil && n < 2 {
		err = fmt.Errorf("adaptivegossip: cluster needs at least 2 nodes, got %d", n)
	}
	g, err := newGroup(o, err, cfg, groupShape{
		names:  memberNames(o.prefix, n),
		fabric: func() (Transport, error) { return NewMemTransport(WithTransportSeed(o.seed)) },
		rng: func(i int) *rand.Rand {
			return rand.New(rand.NewPCG(uint64(o.seed), uint64(i)+1))
		},
		phaseSeed: func(i int) uint64 { return uint64(o.seed)*2_654_435_761 + uint64(i) + 1 },
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{g: g}, nil
}

// Len reports the cluster size.
func (c *Cluster) Len() int { return len(c.g.runners) }

// Nodes returns the member names in index order.
func (c *Cluster) Nodes() []NodeID {
	return append([]NodeID(nil), c.g.names...)
}

// Start launches every node. Cancelling ctx closes the cluster; a
// closed cluster cannot be restarted. Idempotent while open — every
// context passed to Start is watched, so cancelling any of them closes
// the cluster. A transient endpoint failure may be retried: already
// started endpoints are not started twice.
func (c *Cluster) Start(ctx context.Context) error { return c.g.start(ctx) }

// Close terminates every node, the fabric and every Events stream.
// Idempotent; later calls return nil.
func (c *Cluster) Close() error { return c.g.close() }

// Events returns a stream of every delivery in the cluster. From
// subscription onward the stream sees every delivery the WithDeliver
// callback sees; it is closed when ctx is cancelled or the cluster is
// closed. A subscriber that falls more than DefaultEventStreamBuffer
// behind loses deliveries (counted in Stats.StreamDropped).
func (c *Cluster) Events(ctx context.Context) <-chan Delivery {
	return c.g.hub.subscribe(ctx)
}

// Publish broadcasts payload from node i, reporting whether the
// message was admitted (adaptive nodes rate-limit at the allowance).
func (c *Cluster) Publish(i int, payload []byte) bool {
	if c.g.check(i) != nil {
		return false
	}
	return c.g.runners[i].Publish(payload)
}

// SetBufferCapacity resizes node i's buffer at runtime — the paper's
// dynamic-resource scenario.
func (c *Cluster) SetBufferCapacity(i, capacity int) error {
	if err := c.g.check(i); err != nil {
		return err
	}
	return c.g.runners[i].SetBufferCapacity(capacity)
}

// Snapshot captures node i's state.
func (c *Cluster) Snapshot(i int) (NodeSnapshot, error) {
	if err := c.g.check(i); err != nil {
		return NodeSnapshot{}, err
	}
	return c.g.runners[i].Snapshot(), nil
}

// Members returns node i's current gossip target set (itself
// included). With Config.Failure.Enabled, confirmed-crashed members
// disappear from the node's view and rejoining members return to it;
// otherwise all nodes share one static view.
func (c *Cluster) Members(i int) ([]NodeID, error) {
	if err := c.g.check(i); err != nil {
		return nil, err
	}
	return c.g.regs[i].IDs(), nil
}

// Stats aggregates the unified counter snapshot across the cluster.
func (c *Cluster) Stats() Stats { return c.g.stats() }

// ClusterHealth returns the converged health view, sorted by member
// id: every member's independently gossip-learned digests merged, the
// freshest digest winning per member. Empty unless
// Config.Observability.HealthDigests is set.
func (c *Cluster) ClusterHealth() []MemberHealth { return c.g.clusterHealth() }

// DebugAddr returns the bound address of the debug HTTP listener, or
// "" when Config.Observability.DebugAddr was empty.
func (c *Cluster) DebugAddr() string { return c.g.obs.debugAddr() }
