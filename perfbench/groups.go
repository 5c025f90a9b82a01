package main

import (
	"context"
	"fmt"
	"math"
	"time"

	ag "adaptivegossip"
)

// Real-time workloads. Every one runs 16 members with fanout 4 on the
// built-in UDP fabric over the loopback interface.
const rtMembers = 16

// udpLpbcast is plain lpbcast: adaptation, recovery, failure detection,
// health digests and compression off. Rounds carry up to 120 events, so
// encode, the write syscalls, decode and receive/deliver do the work.
func udpLpbcast() *rtWorkload {
	w := &rtWorkload{
		members: rtMembers,
		period:  10 * time.Millisecond,
		rate:    1000,
		payload: 200,
		warmup:  time.Second,
		drain:   time.Second,
	}
	// MaxAge 20 instead of the default 10: with unsynchronized ticks an
	// event's age grows faster than one per round, and an event that
	// expires before reaching every member is a failed operation. Each
	// step of MaxAge cut those misses about fivefold: about 1e-3 of
	// events at 10, 4e-5 at 12, a few in 1e6 at 15.
	cfg := ag.Config{Fanout: 4, Period: w.period, BufferCapacity: 120, MaxAge: 20}
	w.cfg, w.groupCap = cfg, cfg.BufferCapacity
	w.build = clusterBuilder(w, cfg, nil)
	return w
}

// udpFullStack is the same cluster with every extension on: adaptation
// throttling against one constrained member, recovery, SWIM failure
// detection, health digests, flate compression and 5% send loss.
func udpFullStack() *rtWorkload {
	w := &rtWorkload{
		members:     rtMembers,
		period:      40 * time.Millisecond,
		rate:        300,
		payload:     200,
		warmup:      3 * time.Second,
		drain:       2 * time.Second,
		loss:        0.05,
		compression: "flate",
	}
	cfg := ag.Config{
		Fanout:         4,
		Period:         w.period,
		BufferCapacity: 120,
		Adaptive:       true,
		Adaptation:     offeredShare(w.rate / rtMembers),
		Recovery:       ag.RecoveryConfig{Enabled: true},
		Failure:        ag.FailureConfig{Enabled: true},
		Observability:  ag.ObservabilityConfig{HealthDigests: true},
	}
	w.cfg, w.groupCap = cfg, cfg.BufferCapacity
	w.build = clusterBuilder(w, cfg, func(c *ag.Cluster) error {
		return c.SetBufferCapacity(0, 40)
	})
	return w
}

// offeredShare is the adaptation configuration the simulator's
// experiments use: the controller starts at each sender's share of the
// offered load, with twice that as headroom, instead of ramping from
// 1 msg/s.
func offeredShare(perSender float64) ag.AdaptationConfig {
	p := ag.DefaultConfig().Adaptation
	p.InitialRate = perSender
	p.MaxRate = 2 * perSender
	return p
}

// pubsubTopics is the pub/sub workload: 8 topics, each peer subscribed
// to 4 consecutive ones (8 subscribers per topic), 64-byte payloads.
// Every round sends one small message per topic per target, so
// per-datagram costs dominate.
func pubsubTopics() *rtWorkload {
	w := &rtWorkload{
		members: rtMembers,
		period:  10 * time.Millisecond,
		rate:    1000,
		payload: 64,
		warmup:  2 * time.Second,
		drain:   time.Second,
		groups:  8,
	}
	for i := 0; i < 8; i++ {
		w.topics = append(w.topics, ag.Topic(fmt.Sprintf("topic-%d", i)))
	}
	subs := make([][]int, rtMembers)
	masks := make([]uint32, len(w.topics))
	for m := range subs {
		for j := 0; j < 4; j++ {
			t := (m + j) % len(w.topics)
			subs[m] = append(subs[m], t)
			masks[t] |= 1 << m
		}
	}
	perPair := w.rate / float64(rtMembers*4)
	// MaxAge 15 as on udp-lpbcast: at 10, about one event in 10^5
	// expired before reaching all 8 subscribers of its topic.
	cfg := ag.Config{
		Fanout:     4,
		Period:     w.period,
		MaxAge:     15,
		Adaptive:   true,
		Adaptation: offeredShare(perPair),
	}
	w.cfg, w.groupCap = cfg, 240/4
	w.build = func(ctx context.Context, fabric ag.Transport, deliver ag.DeliverFunc, debug string) (rtGroup, error) {
		cfg := cfg
		cfg.Observability.DebugAddr = debug
		ps, err := ag.NewPubSub(w.members, 240, cfg, ag.WithTransport(fabric), ag.WithDeliver(deliver))
		if err != nil {
			return nil, err
		}
		g := &pubsubGroup{ps: ps, topics: w.topics, subs: subs, masks: masks}
		if err := ps.Start(ctx); err != nil {
			ps.Close()
			return nil, err
		}
		for m, ts := range subs {
			for _, t := range ts {
				if err := ps.Subscribe(m, w.topics[t]); err != nil {
					ps.Close()
					return nil, err
				}
			}
		}
		return g, nil
	}
	return w
}

// clusterBuilder builds, starts and configures a Cluster.
func clusterBuilder(w *rtWorkload, cfg ag.Config, post func(*ag.Cluster) error) func(context.Context, ag.Transport, ag.DeliverFunc, string) (rtGroup, error) {
	return func(ctx context.Context, fabric ag.Transport, deliver ag.DeliverFunc, debug string) (rtGroup, error) {
		cfg := cfg
		cfg.Observability.DebugAddr = debug
		c, err := ag.NewCluster(w.members, cfg, ag.WithTransport(fabric), ag.WithDeliver(deliver))
		if err != nil {
			return nil, err
		}
		if err := c.Start(ctx); err != nil {
			c.Close()
			return nil, err
		}
		if post != nil {
			if err := post(c); err != nil {
				c.Close()
				return nil, err
			}
		}
		return &clusterGroup{c: c, all: uint32(1)<<w.members - 1}, nil
	}
}

type clusterGroup struct {
	c   *ag.Cluster
	all uint32
}

func (g *clusterGroup) route(k int) (int, int, uint32) { return k % g.c.Len(), -1, g.all }

func (g *clusterGroup) publish(member, _ int, p []byte) (bool, error) {
	return g.c.Publish(member, p), nil
}

func (g *clusterGroup) stats() ag.Stats   { return g.c.Stats() }
func (g *clusterGroup) debugAddr() string { return g.c.DebugAddr() }
func (g *clusterGroup) close() error      { return g.c.Close() }

func (g *clusterGroup) adaptation() (float64, float64, int) {
	st := g.c.Stats()
	snaps := make([]ag.NodeSnapshot, g.c.Len())
	trueMin := math.MaxInt
	for i := range snaps {
		snaps[i], _ = g.c.Snapshot(i)
		trueMin = min(trueMin, snaps[i].BufferCap)
	}
	worst := 0
	for _, s := range snaps {
		if s.MinBuff > 0 {
			worst = max(worst, abs(s.MinBuff-trueMin))
		}
	}
	return st.SumAllowedRate, st.MinAllowedRate, worst
}

type pubsubGroup struct {
	ps     *ag.PubSub
	topics []ag.Topic
	subs   [][]int  // topic indexes per peer
	masks  []uint32 // subscribers per topic
}

func (g *pubsubGroup) route(k int) (int, int, uint32) {
	m := k % len(g.subs)
	t := g.subs[m][(k/len(g.subs))%len(g.subs[m])]
	return m, t, g.masks[t]
}

func (g *pubsubGroup) publish(member, topic int, p []byte) (bool, error) {
	return g.ps.Publish(member, g.topics[topic], p)
}

func (g *pubsubGroup) stats() ag.Stats   { return g.ps.Stats() }
func (g *pubsubGroup) debugAddr() string { return g.ps.DebugAddr() }
func (g *pubsubGroup) close() error      { return g.ps.Close() }

func (g *pubsubGroup) adaptation() (float64, float64, int) {
	st := g.ps.Stats()
	states := make([][]ag.TopicState, len(g.subs))
	trueMin := map[ag.Topic]int{}
	for m := range states {
		states[m], _ = g.ps.State(m)
		for _, ts := range states[m] {
			if cur, ok := trueMin[ts.Topic]; !ok || ts.BufferCap < cur {
				trueMin[ts.Topic] = ts.BufferCap
			}
		}
	}
	worst := 0
	for _, sts := range states {
		for _, ts := range sts {
			if ts.MinBuff > 0 {
				worst = max(worst, abs(ts.MinBuff-trueMin[ts.Topic]))
			}
		}
	}
	return st.SumAllowedRate, st.MinAllowedRate, worst
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
