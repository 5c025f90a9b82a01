package adaptivegossip

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/health"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/runtime"
)

// group is the construction and lifecycle path the three facades
// share: one fabric and, per member, an endpoint and a runtime.Runner,
// plus one delivery hub and one observability bundle. Node and Cluster
// members each host one untagged broadcast group with its own
// membership registry; PubSub members host one group per subscribed
// topic. A Node is the one-member case.
type group struct {
	names   []NodeID
	fabric  Transport
	eps     []Endpoint
	regs    []*membership.Registry // untagged groups only: detector verdicts are per-observer
	configs []core.NodeConfig      // each member's protocol configuration
	runners []*runtime.Runner
	deliver DeliverFunc // WithDeliver's callback, nil if absent
	hub     *streamHub
	obs     *groupObservability

	mu        sync.Mutex
	started   bool
	epStarted int // endpoints [0, epStarted) have live receive loops
	closed    bool
	done      chan struct{}
}

// groupShape is what sets the facades apart at construction.
type groupShape struct {
	// names are the local members in index order.
	names []NodeID
	// fabric builds the default fabric when WithTransport is absent.
	fabric func() (Transport, error)
	// rng and phaseSeed derive member i's protocol randomness and its
	// runner's tick-phase seed.
	rng       func(i int) *rand.Rand
	phaseSeed func(i int) uint64
	// tagged leaves every runner without a group: PubSub installs one
	// per topic, built from the member's configuration in configs.
	tagged bool
}

// newGroup builds a facade's members. err is the facade's own argument
// or option error: the group owns a fabric handed over through
// WithTransport from the moment the option is applied, so any failure,
// that one included, closes the fabric.
func newGroup(o groupOptions, err error, cfg Config, shape groupShape) (*group, error) {
	g := &group{
		names:   shape.names,
		fabric:  o.fabric,
		deliver: o.deliver,
		hub:     newStreamHub(),
		done:    make(chan struct{}),
	}
	if err == nil {
		err = g.build(o, cfg, shape)
	}
	if err != nil {
		if g.fabric != nil {
			g.fabric.Close()
		}
		if g.obs != nil {
			g.obs.close()
		}
		return nil, err
	}
	return g, nil
}

func (g *group) build(o groupOptions, cfg Config, shape groupShape) error {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if g.fabric == nil {
		fabric, err := shape.fabric()
		if err != nil {
			return err
		}
		g.fabric = fabric
	}
	if err := applyTransportConfig(g.fabric, cfg.Transport); err != nil {
		return err
	}
	g.obs = newGroupObservability(cfg.Observability)

	members := slices.Clone(g.names)
	if len(o.peers) > 0 {
		registrar, ok := g.fabric.(PeerRegistrar)
		if !ok {
			return fmt.Errorf("adaptivegossip: WithPeers needs a transport with an address book (PeerRegistrar)")
		}
		for peer, addr := range o.peers {
			if err := registrar.Register(NodeID(peer), addr); err != nil {
				return err
			}
			members = append(members, NodeID(peer))
		}
	}
	// With failure detection each member owns its membership view, so
	// a detector's verdicts evict from (and re-admit to) that member's
	// gossip targets only. Without it the views never diverge and all
	// members share one registry.
	var shared *membership.Registry
	if !cfg.Failure.Enabled {
		shared = membership.NewRegistry(members...)
	}

	for i, name := range g.names {
		ep, err := g.fabric.Endpoint(name)
		if err != nil {
			return err
		}
		g.eps = append(g.eps, ep)
		g.obs.attachLinks(ep)
		nc := core.NodeConfig{
			ID:            name,
			Gossip:        cfg.gossipParams(),
			Adaptive:      cfg.Adaptive,
			Core:          cfg.Adaptation,
			Recovery:      cfg.Recovery.params(),
			Failure:       cfg.Failure.params(),
			RNG:           shape.rng(i),
			Deliver:       func(ev Event) { g.publish(Delivery{Node: name, Event: ev}) },
			Metrics:       g.obs.node,
			Tracer:        g.obs.tracer(),
			Links:         g.obs.peers,
			Health:        cfg.Observability.healthParams(),
			HealthAugment: healthAugment(ep, g.fabric),
			Start:         time.Now(),
		}
		var node *core.AdaptiveNode
		if !shape.tagged {
			reg := shared
			if reg == nil {
				reg = membership.NewRegistry(members...)
			}
			g.regs = append(g.regs, reg)
			nc.Peers = reg
			nc.OnMembership = func(peer gossip.NodeID, status gossip.MemberStatus) {
				switch status {
				case gossip.MemberConfirmed:
					reg.Remove(peer)
				case gossip.MemberAlive:
					reg.Add(peer)
				}
				if o.onMember != nil {
					o.onMember(name, peer, status)
				}
			}
			if node, err = core.NewAdaptiveNode(nc); err != nil {
				return err
			}
		}
		g.configs = append(g.configs, nc)
		r, err := runtime.NewRunner(runtime.Config{
			Node:      node,
			Transport: ep,
			Period:    cfg.Period,
			PhaseSeed: shape.phaseSeed(i),
			Metrics:   g.obs.runner,
		})
		if err != nil {
			return err
		}
		g.runners = append(g.runners, r)
	}
	// Last: a scrape must never observe a half-built group.
	return g.obs.bindServer(cfg.Observability.DebugAddr, g.stats, g.clusterHealth)
}

// memberNames generates n member names from prefix.
func memberNames(prefix string, n int) []NodeID {
	var names []NodeID
	for i := 0; i < n; i++ {
		names = append(names, NodeID(fmt.Sprintf("%s%02d", prefix, i)))
	}
	return names
}

// publish hands one delivery to the Events streams and the WithDeliver
// callback.
func (g *group) publish(d Delivery) {
	g.hub.publish(d)
	if g.deliver != nil {
		g.deliver(d)
	}
}

// start launches every member. Cancelling ctx closes the group; a
// closed group cannot be restarted. Idempotent while open — every
// context passed to start is watched. A transient endpoint failure may
// be retried: already started endpoints are not started twice.
func (g *group) start(ctx context.Context) error {
	if ctx == nil {
		return fmt.Errorf("adaptivegossip: nil context")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("adaptivegossip: group closed")
	}
	if !g.started {
		for ; g.epStarted < len(g.eps); g.epStarted++ {
			if s, ok := g.eps[g.epStarted].(starter); ok {
				if err := s.Start(); err != nil {
					return err
				}
			}
		}
		for _, r := range g.runners {
			r.Start()
		}
		g.started = true
	}
	watchContext(ctx, g.done, g.close)
	return nil
}

// close stops every member, then closes the endpoints, the fabric, the
// Events streams and the debug listener. Idempotent; later calls
// return nil.
func (g *group) close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	close(g.done)
	for _, r := range g.runners {
		r.Stop()
	}
	var first error
	for _, ep := range g.eps {
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := g.fabric.Close(); err != nil && first == nil {
		first = err
	}
	g.hub.close()
	g.obs.close()
	return first
}

// check reports an error unless i indexes a member.
func (g *group) check(i int) error {
	if i < 0 || i >= len(g.runners) {
		return fmt.Errorf("adaptivegossip: member index %d out of range [0,%d)", i, len(g.runners))
	}
	return nil
}

// stats folds every hosted group's snapshot into the unified counter
// snapshot; Nodes counts members.
func (g *group) stats() Stats {
	var st Stats
	for _, r := range g.runners {
		for _, snap := range r.Snapshots() {
			st.add(snap)
		}
	}
	st.Nodes = len(g.runners)
	st.StreamDropped = g.hub.droppedCount()
	st.addWire(g.fabric)
	st.addPeers(g.obs.peers)
	return st
}

// clusterHealth merges the members' converged health views, sorted by
// member id.
func (g *group) clusterHealth() []MemberHealth {
	views := make([][]health.MemberHealth, 0, len(g.runners))
	for _, r := range g.runners {
		views = append(views, r.ClusterHealth())
	}
	return memberHealthView(mergeMemberHealth(views...))
}

// watchContext closes the group when ctx is cancelled, releasing the
// watcher when the group closes first.
func watchContext(ctx context.Context, done <-chan struct{}, closeFn func() error) {
	stop := ctx.Done()
	if stop == nil {
		return
	}
	go func() {
		select {
		case <-stop:
			closeFn()
		case <-done:
		}
	}()
}
