package adaptivegossip

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPubSubTopicsAndBudgets(t *testing.T) {
	cfg := fastConfig()
	var mu sync.Mutex
	delivered := map[NodeID]map[Topic]int{}

	cluster, err := NewPubSub(6, 40, cfg,
		WithSeed(3),
		WithDeliver(func(d Delivery) {
			mu.Lock()
			if delivered[d.Node] == nil {
				delivered[d.Node] = map[Topic]int{}
			}
			delivered[d.Node][d.Topic]++
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	if cluster.Len() != 6 || len(cluster.Peers()) != 6 {
		t.Fatalf("cluster size %d", cluster.Len())
	}

	// Everyone on "all"; the first three also on "sub".
	for i := 0; i < 6; i++ {
		if err := cluster.Subscribe(i, "all"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := cluster.Subscribe(i, "sub"); err != nil {
			t.Fatal(err)
		}
	}

	// Budget split visible in state.
	st, err := cluster.State(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 2 || st[0].BufferCap != 20 || st[1].BufferCap != 20 {
		t.Fatalf("split state %+v", st)
	}
	st, err = cluster.State(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 1 || st[0].BufferCap != 40 {
		t.Fatalf("unsplit state %+v", st)
	}

	// Topic isolation end to end.
	if ok, err := cluster.Publish(0, "all", []byte("wide")); err != nil || !ok {
		t.Fatalf("publish all: %v %v", ok, err)
	}
	if ok, err := cluster.Publish(1, "sub", []byte("narrow")); err != nil || !ok {
		t.Fatalf("publish sub: %v %v", ok, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		all, sub := 0, 0
		for _, byTopic := range delivered {
			if byTopic["all"] > 0 {
				all++
			}
			if byTopic["sub"] > 0 {
				sub++
			}
		}
		mu.Unlock()
		if all == 6 && sub == 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for node, byTopic := range delivered {
		if byTopic["sub"] > 0 {
			found := false
			for i := 0; i < 3; i++ {
				if node == cluster.Peers()[i] {
					found = true
				}
			}
			if !found {
				t.Fatalf("non-subscriber %s delivered on sub", node)
			}
		}
	}
	allCount := 0
	for _, byTopic := range delivered {
		if byTopic["all"] == 1 {
			allCount++
		}
	}
	if allCount != 6 {
		t.Fatalf("all-topic reached %d/6", allCount)
	}
}

// TestPubSubEventsStreamCarriesTopics: the Events stream is shared
// across all facades; on the pub/sub facade every delivery carries its
// topic, matching the callback contract.
func TestPubSubEventsStreamCarriesTopics(t *testing.T) {
	cluster, err := NewPubSub(4, 40, fastConfig(), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	events := cluster.Events(ctx)
	seen := make(chan map[Topic]int, 1)
	go func() {
		byTopic := map[Topic]int{}
		for d := range events {
			byTopic[d.Topic]++
		}
		seen <- byTopic
	}()
	if err := cluster.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := cluster.Subscribe(i, "ticks"); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := cluster.Publish(0, "ticks", []byte("t0")); err != nil || !ok {
		t.Fatalf("publish: %v %v", ok, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && cluster.Stats().Delivered < 4 {
		time.Sleep(10 * time.Millisecond)
	}
	st := cluster.Stats()
	cluster.Close()
	byTopic := <-seen
	if byTopic["ticks"] != 4 {
		t.Fatalf("stream saw %d ticks deliveries, want 4 (stats %+v)", byTopic["ticks"], st)
	}
	if st.Nodes != 4 || st.Published == 0 {
		t.Fatalf("unified stats %+v", st)
	}
}

func TestPubSubErrors(t *testing.T) {
	cfg := fastConfig()
	if _, err := NewPubSub(1, 40, cfg); err == nil {
		t.Fatal("1-peer group accepted")
	}
	if _, err := NewPubSub(4, 0, cfg); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := NewPubSub(4, 40, cfg, WithOnMemberChange(func(node, peer NodeID, st MemberStatus) {})); err == nil {
		t.Fatal("WithOnMemberChange accepted by NewPubSub")
	}
	cluster, err := NewPubSub(4, 40, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Subscribe(99, "t"); err == nil {
		t.Fatal("out-of-range subscribe accepted")
	}
	if err := cluster.Unsubscribe(0, "ghost"); err == nil {
		t.Fatal("unsubscribe from unknown topic accepted")
	}
	if _, err := cluster.Publish(0, "ghost", nil); err == nil {
		t.Fatal("publish on unsubscribed topic accepted")
	}
	if _, err := cluster.State(-1); err == nil {
		t.Fatal("out-of-range state accepted")
	}
	if err := cluster.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestPubSubUnsubscribeRebalancesLive(t *testing.T) {
	cluster, err := NewPubSub(4, 30, fastConfig(), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for _, topic := range []Topic{"a", "b", "c"} {
		if err := cluster.Subscribe(0, topic); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := cluster.State(0)
	if len(st) != 3 || st[0].BufferCap != 10 {
		t.Fatalf("state %+v", st)
	}
	if err := cluster.Unsubscribe(0, "b"); err != nil {
		t.Fatal(err)
	}
	st, _ = cluster.State(0)
	if len(st) != 2 || st[0].BufferCap != 15 {
		t.Fatalf("state after unsubscribe %+v", st)
	}
}

// TestFacadesValidateAlike runs the same configurations through all
// three constructors: every facade validates Config alike, and
// NewPubSub alone refuses the per-member mechanisms it has no per-topic
// form of (failure detection, health digests).
func TestFacadesValidateAlike(t *testing.T) {
	mem := func() Transport {
		tr, err := NewMemTransport()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	build := map[string]func(Config) (io.Closer, error){
		"NewNode": func(cfg Config) (io.Closer, error) {
			return NewNode("v", cfg, WithTransport(mem()))
		},
		"NewCluster": func(cfg Config) (io.Closer, error) {
			return NewCluster(3, cfg, WithTransport(mem()))
		},
		"NewPubSub": func(cfg Config) (io.Closer, error) {
			return NewPubSub(3, 40, cfg, WithTransport(mem()))
		},
	}
	cases := []struct {
		name       string
		mutate     func(*Config)
		pubsubOnly bool
	}{
		{"trace sample rate 2", func(c *Config) { c.Observability.TraceSampleRate = 2 }, false},
		{"trace buffer size -1", func(c *Config) { c.Observability.TraceBufferSize = -1 }, false},
		{"recovery digest length -5", func(c *Config) { c.Recovery = RecoveryConfig{Enabled: true, DigestLength: -5} }, false},
		{"failure detection", func(c *Config) { c.Failure.Enabled = true }, true},
		{"health digests", func(c *Config) { c.Observability.HealthDigests = true }, true},
	}
	for _, tc := range cases {
		for facade, fn := range build {
			cfg := fastConfig()
			tc.mutate(&cfg)
			group, err := fn(cfg)
			wantErr := !tc.pubsubOnly || facade == "NewPubSub"
			if err == nil {
				group.Close()
			}
			if (err != nil) != wantErr {
				t.Errorf("%s with %s: error %v, want error %v", facade, tc.name, err, wantErr)
			}
		}
	}
}

// TestPubSubRecoversUnderLoss: Config.Recovery applies per topic — on a
// lossy fabric with fanout 1 and short-lived events, pull repair
// completes delivery and shows in Stats.EventsRecovered.
func TestPubSubRecoversUnderLoss(t *testing.T) {
	cfg := fastConfig()
	cfg.Fanout = 1
	cfg.MaxAge = 3
	cfg.Recovery.Enabled = true
	fabric, err := NewMemTransport(WithTransportSeed(11), WithLoss(0.3))
	if err != nil {
		t.Fatal(err)
	}
	const peers, events = 8, 10
	var delivered atomic.Int64
	ps, err := NewPubSub(peers, 40, cfg,
		WithSeed(11),
		WithTransport(fabric),
		WithDeliver(func(d Delivery) { delivered.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	for i := 0; i < peers; i++ {
		if err := ps.Subscribe(i, "t"); err != nil {
			t.Fatal(err)
		}
	}

	sent := 0
	for i := 0; i < events; i++ {
		ok, err := ps.Publish(i%2, "t", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			sent++
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := int64(sent * peers)
	deadline := time.Now().Add(10 * time.Second)
	for delivered.Load() < want && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := delivered.Load(); got != want {
		t.Fatalf("delivered %d of %d under loss with recovery enabled", got, want)
	}
	if st := ps.Stats(); st.EventsRecovered == 0 {
		t.Error("full delivery but no events recovered — loss regime too soft to exercise recovery")
	}
}
