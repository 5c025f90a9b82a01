package pubsub

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/runtime"
	"adaptivegossip/internal/transport"
)

// nodeConfig is the per-topic protocol template of member id.
func nodeConfig(id string) core.NodeConfig {
	cp := core.DefaultParams()
	cp.InitialRate = 10
	return core.NodeConfig{
		ID:       gossip.NodeID(id),
		Gossip:   gossip.Params{Fanout: 3, Period: time.Second, MaxAge: 8},
		Adaptive: true,
		Core:     cp,
		RNG:      rand.New(rand.NewPCG(uint64(len(id)), 99)),
		Start:    time.Now(),
	}
}

// tagTransport is a scratch-safe transport that counts sent messages
// per group tag and exposes the handler the runner installs, so a test
// can play the transport's dispatch goroutine.
type tagTransport struct {
	id   gossip.NodeID
	mu   sync.Mutex
	h    transport.Handler
	sent map[string]int
}

func (f *tagTransport) LocalID() gossip.NodeID { return f.id }
func (f *tagTransport) Close() error           { return nil }
func (f *tagTransport) ScratchSafe()           {}

func (f *tagTransport) Send(_ gossip.NodeID, msg *gossip.Message) error {
	f.mu.Lock()
	f.sent[msg.Group]++
	f.mu.Unlock()
	return nil
}

func (f *tagTransport) SetHandler(h transport.Handler) {
	f.mu.Lock()
	f.h = h
	f.mu.Unlock()
}

func (f *tagTransport) handler() transport.Handler {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.h
}

func (f *tagTransport) sentTo(group string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sent[group]
}

// startPeer builds a peer on a started runner over a tagTransport; the
// runner stops when the test ends.
func startPeer(t *testing.T, cfg PeerConfig, period time.Duration) (*Peer, *tagTransport) {
	t.Helper()
	tr := &tagTransport{id: cfg.Node.ID, sent: map[string]int{}}
	r, err := runtime.NewRunner(runtime.Config{Transport: tr, Period: period})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Stop)
	cfg.Runner = r
	p, err := NewPeer(cfg)
	if err != nil {
		t.Fatalf("NewPeer(%s): %v", cfg.Node.ID, err)
	}
	return p, tr
}

func newPeer(t *testing.T, id string, budget int) *Peer {
	t.Helper()
	p, _ := startPeer(t, PeerConfig{BufferBudget: budget, Node: nodeConfig(id)}, time.Hour)
	return p
}

func TestNewPeerValidation(t *testing.T) {
	tr := &tagTransport{id: "a", sent: map[string]int{}}
	r, err := runtime.NewRunner(runtime.Config{Transport: tr, Period: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	valid := func() PeerConfig { return PeerConfig{Runner: r, BufferBudget: 60, Node: nodeConfig("a")} }
	if _, err := NewPeer(valid()); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*PeerConfig){
		"nil runner":        func(c *PeerConfig) { c.Runner = nil },
		"empty id":          func(c *PeerConfig) { c.Node.ID = "" },
		"another member":    func(c *PeerConfig) { c.Node.ID = "b" },
		"zero budget":       func(c *PeerConfig) { c.BufferBudget = 0 },
		"nil rng":           func(c *PeerConfig) { c.Node.RNG = nil },
		"bad gossip params": func(c *PeerConfig) { c.Node.Gossip.Fanout = 0 },
		"bad core params":   func(c *PeerConfig) { c.Node.Core.Window = -1 },
	} {
		cfg := valid()
		mutate(&cfg)
		if _, err := NewPeer(cfg); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestSubscribeSplitsBudget(t *testing.T) {
	p := newPeer(t, "a", 60)
	reg := membership.NewRegistry("a", "b")
	if st := p.State(); len(st) != 0 {
		t.Fatalf("unsubscribed state %+v", st)
	}
	for i, want := range []int{60, 30, 20} {
		if err := p.Subscribe(Topic(fmt.Sprintf("t%d", i)), reg); err != nil {
			t.Fatal(err)
		}
		st := p.State()
		if len(st) != i+1 {
			t.Fatalf("after %d subscriptions: %d topics", i+1, len(st))
		}
		for _, ts := range st {
			if ts.BufferCap != want {
				t.Fatalf("topic %s capacity %d, want %d", ts.Topic, ts.BufferCap, want)
			}
		}
	}
	// Unsubscribe returns the budget.
	if err := p.Unsubscribe("t1"); err != nil {
		t.Fatal(err)
	}
	st := p.State()
	if len(st) != 2 || st[0].Topic != "t0" || st[1].Topic != "t2" {
		t.Fatalf("topics after unsubscribe %+v", st)
	}
	if st[0].BufferCap != 30 || st[1].BufferCap != 30 {
		t.Fatalf("after unsubscribe: capacities %d/%d, want 30", st[0].BufferCap, st[1].BufferCap)
	}
}

func TestSubscribeErrors(t *testing.T) {
	p := newPeer(t, "a", 60)
	reg := membership.NewRegistry("a", "b")
	if err := p.Subscribe("", reg); err == nil {
		t.Fatal("empty topic accepted")
	}
	if err := p.Subscribe("t", nil); err == nil {
		t.Fatal("nil sampler accepted")
	}
	if err := p.Subscribe("t", reg); err != nil {
		t.Fatal(err)
	}
	if err := p.Subscribe("t", reg); err == nil {
		t.Fatal("duplicate subscription accepted")
	}
	if err := p.Unsubscribe("ghost"); err == nil {
		t.Fatal("unsubscribe from unknown topic accepted")
	}
}

func TestPublishRequiresSubscription(t *testing.T) {
	p := newPeer(t, "a", 60)
	if _, err := p.Publish("nope", nil); err == nil {
		t.Fatal("publish to unsubscribed topic accepted")
	}
	reg := membership.NewRegistry("a", "b")
	if err := p.Subscribe("t", reg); err != nil {
		t.Fatal(err)
	}
	admitted, err := p.Publish("t", []byte("x"))
	if err != nil || !admitted {
		t.Fatalf("publish failed: %v admitted=%v", err, admitted)
	}
	if st := p.State(); st[0].Adaptive.Published != 1 || st[0].BufferLen != 1 {
		t.Fatalf("state after publish %+v", st[0])
	}
}

// TestTickTagsMessagesWithTopic: the runner's rounds send each topic's
// gossip tagged with the topic, and nothing untagged.
func TestTickTagsMessagesWithTopic(t *testing.T) {
	p, tr := startPeer(t, PeerConfig{BufferBudget: 60, Node: nodeConfig("a")}, 5*time.Millisecond)
	reg := membership.NewRegistry("a", "b", "c")
	for _, topic := range []Topic{"alpha", "beta"} {
		if err := p.Subscribe(topic, reg); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Publish(topic, []byte(topic)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.sentTo("alpha") == 0 || tr.sentTo("beta") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("topics missing from outgoing groups: %v", tr.sent)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := tr.sentTo(""); n != 0 {
		t.Fatalf("%d untagged messages sent", n)
	}
}

// TestReceiveRoutesByTopic: received gossip reaches the topic its tag
// names; gossip for a topic the peer does not subscribe is dropped.
func TestReceiveRoutesByTopic(t *testing.T) {
	var mu sync.Mutex
	delivered := map[Topic]int{}
	p, tr := startPeer(t, PeerConfig{
		BufferBudget: 60,
		Node:         nodeConfig("b"),
		Deliver: func(topic Topic, ev gossip.Event) {
			mu.Lock()
			delivered[topic]++
			mu.Unlock()
		},
	}, time.Hour)
	reg := membership.NewRegistry("a", "b")
	if err := p.Subscribe("alpha", reg); err != nil {
		t.Fatal(err)
	}
	count := func(topic Topic) int {
		mu.Lock()
		defer mu.Unlock()
		return delivered[topic]
	}
	mkMsg := func(group string, seq uint64) *gossip.Message {
		return &gossip.Message{
			From: "a", Group: group,
			Events: []gossip.Event{{ID: gossip.EventID{Origin: "a", Seq: seq}, Age: 1}},
		}
	}
	h := tr.handler()
	h(mkMsg("alpha", 1))
	h(mkMsg("beta", 2)) // not subscribed: dropped
	if count("alpha") != 1 || count("beta") != 0 {
		t.Fatalf("deliveries %v", delivered)
	}
	// Same (origin, seq) on different topics are distinct events.
	if err := p.Subscribe("beta", reg); err != nil {
		t.Fatal(err)
	}
	h(mkMsg("beta", 1))
	if count("beta") != 1 {
		t.Fatalf("cross-topic id collision: %v", delivered)
	}
}

// memPeers starts n pub/sub peers on runners over one memory fabric.
// deliver, when non-nil, observes peer i's deliveries.
func memPeers(t *testing.T, n, budget int, period time.Duration, tune func(*core.NodeConfig), deliver func(i int, topic Topic)) ([]*Peer, []gossip.NodeID) {
	t.Helper()
	net, err := transport.NewMemNetwork(transport.WithMemSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]gossip.NodeID, n)
	peers := make([]*Peer, n)
	runners := make([]*runtime.Runner, n)
	t.Cleanup(func() {
		for _, r := range runners {
			if r != nil {
				r.Stop()
			}
		}
		net.Close()
	})
	for i := range peers {
		names[i] = gossip.NodeID(fmt.Sprintf("p%02d", i))
		ep, err := net.Endpoint(names[i])
		if err != nil {
			t.Fatal(err)
		}
		r, err := runtime.NewRunner(runtime.Config{Transport: ep, Period: period})
		if err != nil {
			t.Fatal(err)
		}
		runners[i] = r
		r.Start()
		nc := nodeConfig(string(names[i]))
		nc.RNG = rand.New(rand.NewPCG(uint64(i), 7))
		nc.Gossip.Period = period
		if tune != nil {
			tune(&nc)
		}
		cfg := PeerConfig{Runner: r, BufferBudget: budget, Node: nc}
		if deliver != nil {
			cfg.Deliver = func(topic Topic, _ gossip.Event) { deliver(i, topic) }
		}
		if peers[i], err = NewPeer(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return peers, names
}

// TestMultiTopicClusterIsolationAndAdaptation is the paper's motivating
// scenario end to end: two topics with overlapping subscribers, events
// stay within their topic, and a subscription wave that halves the
// overlapping nodes' budgets pulls the publisher's allowance down.
//
// The runners never tick on their own (their period outlasts the test);
// the test runs synchronous one-second rounds in virtual time through
// Do, so the outcome after a fixed number of rounds is deterministic.
func TestMultiTopicClusterIsolationAndAdaptation(t *testing.T) {
	const n = 12
	var mu sync.Mutex
	delivered := make([]map[Topic]int, n)
	for i := range delivered {
		delivered[i] = map[Topic]int{}
	}
	t0 := time.Now()
	peers, names := memPeers(t, n, 16, math.MaxInt64, func(nc *core.NodeConfig) {
		nc.Gossip.Period = time.Second
		nc.Core.InitialRate = 12
		nc.Core.MaxRate = 24
		nc.Start = t0
	}, func(i int, topic Topic) {
		mu.Lock()
		delivered[i][topic]++
		mu.Unlock()
	})
	regA := membership.NewRegistry(names...) // all 12 in topic A
	regB := membership.NewRegistry(names[6:]...)
	for _, p := range peers {
		if err := p.Subscribe("A", regA); err != nil {
			t.Fatal(err)
		}
	}
	index := map[gossip.NodeID]int{}
	for i, name := range names {
		index[name] = i
	}

	now := t0
	carry := 0.0
	round := func(publishRate float64) {
		now = now.Add(time.Second)
		carry += publishRate
		peers[0].cfg.Runner.Do(func(g *runtime.Groups) {
			for ; carry >= 1; carry-- {
				g.Node("A").Publish([]byte("a"), now)
			}
		})
		type env struct {
			to  gossip.NodeID
			tag string
			msg *gossip.Message
		}
		var mail []env
		for _, p := range peers {
			p.cfg.Runner.Do(func(g *runtime.Groups) {
				for _, gr := range g.List() {
					for _, out := range gr.Node.Tick(now) {
						mail = append(mail, env{out.To, gr.Tag, out.Msg})
					}
				}
			})
		}
		for _, e := range mail {
			peers[index[e.to]].cfg.Runner.Do(func(g *runtime.Groups) {
				if node := g.Node(e.tag); node != nil {
					node.Receive(e.msg, now)
				}
			})
		}
	}
	allowed := func() (float64, int) {
		st := peers[0].State()
		return st[0].AllowedRate, st[0].MinBuff
	}

	// Phase 1: only topic A, full budget everywhere.
	for r := 0; r < 60; r++ {
		round(12)
	}
	allowedBefore, _ := allowed()
	if allowedBefore <= 0 {
		t.Fatal("publisher has no allowance")
	}

	// Phase 2: the last 6 peers subscribe to topic B, halving their
	// budget on A. Topic B stays silent; only the budget split matters.
	for i := 6; i < n; i++ {
		if err := peers[i].Subscribe("B", regB); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 60; r++ {
		round(12)
	}
	allowedAfter, minBuff := allowed()
	if allowedAfter >= allowedBefore*0.85 {
		t.Fatalf("allowance did not adapt to the budget split: %.2f → %.2f",
			allowedBefore, allowedAfter)
	}
	if minBuff != 8 {
		t.Fatalf("minBuff estimate %d, want the split budget 8", minBuff)
	}

	// Isolation: nobody delivered anything on topic B, and every peer
	// delivered on A.
	mu.Lock()
	defer mu.Unlock()
	for i, byTopic := range delivered {
		if byTopic["B"] != 0 {
			t.Fatalf("%s delivered %d events on silent topic B", names[i], byTopic["B"])
		}
		if byTopic["A"] == 0 {
			t.Fatalf("%s delivered nothing on topic A", names[i])
		}
	}
}

// TestRunnersDisseminatePerTopic runs a live two-topic cluster over the
// in-memory fabric and checks topic isolation end to end.
func TestRunnersDisseminatePerTopic(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	delivered := make([]map[Topic]int, n)
	for i := range delivered {
		delivered[i] = map[Topic]int{}
	}
	peers, names := memPeers(t, n, 40, 25*time.Millisecond, nil, func(i int, topic Topic) {
		mu.Lock()
		delivered[i][topic]++
		mu.Unlock()
	})
	regAll := membership.NewRegistry(names...)
	regHalf := membership.NewRegistry(names[:4]...)

	// Everyone subscribes to "wide"; only the first half to "narrow".
	for i, p := range peers {
		if err := p.Subscribe("wide", regAll); err != nil {
			t.Fatal(err)
		}
		if i < 4 {
			if err := p.Subscribe("narrow", regHalf); err != nil {
				t.Fatal(err)
			}
		}
	}

	if ok, err := peers[0].Publish("wide", []byte("w")); err != nil || !ok {
		t.Fatalf("publish wide: %v %v", ok, err)
	}
	if ok, err := peers[0].Publish("narrow", []byte("n")); err != nil || !ok {
		t.Fatalf("publish narrow: %v %v", ok, err)
	}
	if _, err := peers[5].Publish("narrow", nil); err == nil {
		t.Fatal("publish on unsubscribed topic accepted")
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		wide, narrow := 0, 0
		for _, byTopic := range delivered {
			if byTopic["wide"] > 0 {
				wide++
			}
			if byTopic["narrow"] > 0 {
				narrow++
			}
		}
		mu.Unlock()
		if wide == n && narrow == 4 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	for i, name := range names {
		if delivered[i]["wide"] != 1 {
			t.Fatalf("%s wide deliveries = %d", name, delivered[i]["wide"])
		}
		wantNarrow := 0
		if i < 4 {
			wantNarrow = 1
		}
		if delivered[i]["narrow"] != wantNarrow {
			t.Fatalf("%s narrow deliveries = %d, want %d", name, delivered[i]["narrow"], wantNarrow)
		}
	}
}

func TestRunnerSubscribeUnsubscribeLive(t *testing.T) {
	peers, _ := memPeers(t, 1, 30, 20*time.Millisecond, nil, nil)
	p := peers[0]
	reg := membership.NewRegistry("p00", "other")
	if err := p.Subscribe("t1", reg); err != nil {
		t.Fatal(err)
	}
	if err := p.Subscribe("t2", reg); err != nil {
		t.Fatal(err)
	}
	state := p.State()
	if len(state) != 2 || state[0].BufferCap != 15 {
		t.Fatalf("state %+v", state)
	}
	if err := p.Unsubscribe("t1"); err != nil {
		t.Fatal(err)
	}
	state = p.State()
	if len(state) != 1 || state[0].BufferCap != 30 {
		t.Fatalf("state after unsubscribe %+v", state)
	}
}

// TestRunnerStopSemantics: a peer whose runner is not running refuses
// every operation instead of hanging.
func TestRunnerStopSemantics(t *testing.T) {
	tr := &tagTransport{id: "x", sent: map[string]int{}}
	r, err := runtime.NewRunner(runtime.Config{Transport: tr, Period: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPeer(PeerConfig{Runner: r, BufferBudget: 30, Node: nodeConfig("x")})
	if err != nil {
		t.Fatal(err)
	}
	r.Stop() // before start: no hang
	if err := p.Subscribe("t", membership.NewRegistry("x", "y")); err == nil {
		t.Fatal("subscribe on stopped runner accepted")
	}
	if _, err := p.Publish("t", nil); err == nil {
		t.Fatal("publish on stopped runner accepted")
	}
	if st := p.State(); st != nil {
		t.Fatalf("state of stopped runner %+v", st)
	}
}
