package adaptivegossip

import (
	"context"
	"fmt"
	"math/rand/v2"
)

// Node is a single broadcast group member — the deployment shape of the
// paper's prototype (one process per workstation). By default it
// gossips over a UDP fabric; plug any Transport with WithTransport.
// Create with NewNode, launch with Start, tear down with Close.
type Node struct {
	g *group
}

// NewNode builds a group member named id with the shared option set
// (WithTransport, WithPeers, WithSeed, WithDeliver, WithOnMemberChange).
// Without WithTransport it binds a UDP fabric on an ephemeral loopback
// port; pass NewUDPTransport(WithBind(...)) for a production listen
// address.
func NewNode(id string, cfg Config, opts ...Option) (*Node, error) {
	o, err := applyOptions(facadeNode, groupOptions{}, opts)
	if err == nil && id == "" {
		err = fmt.Errorf("adaptivegossip: node id is required")
	}
	seed := o.seed
	if seed == 0 {
		for _, b := range []byte(id) {
			seed = seed*131 + int64(b)
		}
		seed++
	}
	g, err := newGroup(o, err, cfg, groupShape{
		names:  []NodeID{NodeID(id)},
		fabric: func() (Transport, error) { return NewUDPTransport(WithTransportSeed(seed)) },
		rng: func(int) *rand.Rand {
			return rand.New(rand.NewPCG(uint64(seed), uint64(seed)^0xABCDEF))
		},
		phaseSeed: func(int) uint64 { return uint64(seed) + 7 },
	})
	if err != nil {
		return nil, err
	}
	return &Node{g: g}, nil
}

// ID returns the node's name.
func (n *Node) ID() NodeID { return n.g.names[0] }

// Addr returns the node's bound wire address (useful with ":0" binds),
// or "" when the transport has no address to report.
func (n *Node) Addr() string {
	if a, ok := n.g.eps[0].(udpAddrer); ok {
		return a.Addr().String()
	}
	return ""
}

// AddPeer registers a member discovered after startup: its address is
// registered with the transport's address book and the member joins
// the gossip target set. On transports without an address book
// (PeerRegistrar) — such as the memory fabric, which routes by id —
// pass addr == ""; a non-empty address there is an error, and an
// invalid address on a book-keeping transport fails rather than
// leaving a member unreachable.
func (n *Node) AddPeer(id, addr string) error {
	registrar, ok := n.g.fabric.(PeerRegistrar)
	switch {
	case ok:
		if err := registrar.Register(NodeID(id), addr); err != nil {
			return err
		}
	case addr != "":
		return fmt.Errorf("adaptivegossip: transport has no address book to register %q with", addr)
	}
	n.g.regs[0].Add(NodeID(id))
	return nil
}

// RemovePeer drops a member from the gossip target set.
func (n *Node) RemovePeer(id string) {
	n.g.regs[0].Remove(NodeID(id))
}

// Members returns the node's current gossip target set (itself
// included). With Config.Failure.Enabled, confirmed-crashed members
// disappear from this list and rejoining members return to it.
func (n *Node) Members() []NodeID {
	return n.g.regs[0].IDs()
}

// Start begins gossiping. Cancelling ctx closes the node; a node that
// has been closed cannot be restarted. Idempotent while open — every
// context passed to Start is watched, so cancelling any of them closes
// the node. A transient endpoint failure may be retried.
func (n *Node) Start(ctx context.Context) error { return n.g.start(ctx) }

// Close halts gossip, closes the transport and ends every Events
// stream. Idempotent; later calls return nil.
func (n *Node) Close() error { return n.g.close() }

// Events returns a stream of this node's deliveries. From
// subscription onward the stream sees every delivery the WithDeliver
// callback sees; it is closed when ctx is cancelled or the node is
// closed. A subscriber that falls more than DefaultEventStreamBuffer
// behind loses deliveries (counted in Stats.StreamDropped).
func (n *Node) Events(ctx context.Context) <-chan Delivery {
	return n.g.hub.subscribe(ctx)
}

// Publish broadcasts payload, reporting whether it was admitted by the
// node's rate allowance.
func (n *Node) Publish(payload []byte) bool {
	return n.g.runners[0].Publish(payload)
}

// SetBufferCapacity resizes the local events buffer at runtime.
func (n *Node) SetBufferCapacity(capacity int) error {
	return n.g.runners[0].SetBufferCapacity(capacity)
}

// Snapshot captures the node's protocol state.
func (n *Node) Snapshot() NodeSnapshot {
	return n.g.runners[0].Snapshot()
}

// Stats returns the unified counter snapshot (Nodes == 1).
func (n *Node) Stats() Stats { return n.g.stats() }

// ClusterHealth returns the node's converged view of the cluster's
// gossip-disseminated health digests, sorted by member id — the node's
// own entry plus one per member it has heard a digest about. Empty
// unless Config.Observability.HealthDigests is set.
func (n *Node) ClusterHealth() []MemberHealth { return n.g.clusterHealth() }

// DebugAddr returns the bound address of the debug HTTP listener, or
// "" when Config.Observability.DebugAddr was empty. Useful with ":0"
// binds.
func (n *Node) DebugAddr() string { return n.g.obs.debugAddr() }
