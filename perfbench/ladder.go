package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	ag "adaptivegossip"
	"adaptivegossip/internal/core"
	"adaptivegossip/internal/failure"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/health"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/recovery"
	"adaptivegossip/internal/transport"
)

// ladderSpec is the configuration the ladder replays captured messages
// against: the workload's codec and one protocol node per group.
type ladderSpec struct {
	cfg         ag.Config // protocol settings, defaults applied
	groupCap    int       // buffer capacity of one group's node
	compression string
	names       []gossip.NodeID
}

// ladderResult is the single-threaded per-call cost of each layer.
type ladderResult struct {
	eventsPerMsg        float64
	encodeUS, decodeUS  float64 // per message
	decodeAllocs        float64 // per message
	decodeBytes         float64 // per message
	receiveUS           float64 // per message
	receiveAllocs       float64 // per message
	tickUS              float64 // per round
	ticks, receiveCalls int
}

// ladderPasses is how many times each captured message goes through
// each layer; the ladder reports the mean over all passes.
const ladderPasses = 5

func allocsNow() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// runLadder replays msgs through the codec (encode, then decode of the
// encoded form) and through fresh protocol nodes (Receive, with a Tick
// after every fanout's worth of messages), timing each call and
// counting allocations. It must run with the system under test stopped.
func runLadder(spec ladderSpec, msgs []*gossip.Message) (ladderResult, error) {
	var res ladderResult
	if len(msgs) == 0 {
		return res, nil
	}
	comp, err := transport.CompressorByName(spec.compression)
	if err != nil {
		return res, err
	}
	codec := transport.DefaultCodec()
	codec.Compression = comp

	encoded := make([][]byte, len(msgs))
	events := 0
	var buf []byte
	var encodeNS int64
	for pass := 0; pass < ladderPasses; pass++ {
		for i, m := range msgs {
			start := time.Now()
			buf, err = codec.AppendEncode(buf[:0], m)
			encodeNS += time.Since(start).Nanoseconds()
			if err != nil {
				return res, fmt.Errorf("ladder encode: %w", err)
			}
			if pass == 0 {
				encoded[i] = append([]byte(nil), buf...)
				events += len(m.Events)
			}
		}
	}
	res.eventsPerMsg = ratio(float64(events), float64(len(msgs)))
	res.encodeUS = float64(encodeNS) / 1e3 / float64(ladderPasses*len(msgs))

	runtime.GC()
	objs0, bytes0 := allocsNow()
	start := time.Now()
	for pass := 0; pass < ladderPasses; pass++ {
		for _, b := range encoded {
			if _, err := codec.Decode(b); err != nil {
				return res, fmt.Errorf("ladder decode: %w", err)
			}
		}
	}
	elapsed := time.Since(start)
	objs1, bytes1 := allocsNow()
	n := float64(ladderPasses * len(msgs))
	res.decodeUS = float64(elapsed.Nanoseconds()) / 1e3 / n
	res.decodeAllocs = float64(objs1-objs0) / n
	res.decodeBytes = float64(bytes1-bytes0) / n

	var receiveNS, tickNS int64
	var receiveAllocs uint64
	for pass := 0; pass < ladderPasses; pass++ {
		nodes := map[string]*core.AdaptiveNode{}
		pending := map[string]int{}
		now := time.Unix(1_000_000, 0)
		step := spec.cfg.Period / time.Duration(spec.cfg.Fanout)
		for _, m := range msgs {
			node, ok := nodes[m.Group]
			if !ok {
				if node, err = newLadderNode(spec, now); err != nil {
					return res, err
				}
				nodes[m.Group] = node
			}
			if m.From == node.ID() {
				continue
			}
			now = now.Add(step)
			// ReadMemStats allocates nothing, so the difference is the
			// Receive call's own allocations.
			o0, _ := allocsNow()
			t0 := time.Now()
			node.Receive(m, now)
			receiveNS += time.Since(t0).Nanoseconds()
			o1, _ := allocsNow()
			receiveAllocs += o1 - o0
			res.receiveCalls++
			if pending[m.Group]++; pending[m.Group] == spec.cfg.Fanout {
				pending[m.Group] = 0
				t0 := time.Now()
				node.Tick(now)
				tickNS += time.Since(t0).Nanoseconds()
				res.ticks++
			}
		}
	}
	res.receiveUS = ratio(float64(receiveNS)/1e3, float64(res.receiveCalls))
	res.receiveAllocs = ratio(float64(receiveAllocs), float64(res.receiveCalls))
	res.tickUS = ratio(float64(tickNS)/1e3, float64(res.ticks))
	return res, nil
}

// newLadderNode builds a protocol node with the workload's settings,
// the way the facades do, over a static view of the workload's members.
func newLadderNode(spec ladderSpec, now time.Time) (*core.AdaptiveNode, error) {
	cfg := spec.cfg
	return core.NewAdaptiveNode(core.NodeConfig{
		ID: spec.names[0],
		Gossip: gossip.Params{
			Fanout:    cfg.Fanout,
			Period:    cfg.Period,
			MaxEvents: spec.groupCap,
			MaxAge:    cfg.MaxAge,
		},
		Adaptive: cfg.Adaptive,
		Core:     cfg.Adaptation,
		Recovery: recovery.Params{Enabled: cfg.Recovery.Enabled},
		Failure:  failure.Params{Enabled: cfg.Failure.Enabled},
		Health:   health.Params{Enabled: cfg.Observability.HealthDigests},
		Peers:    membership.NewRegistry(spec.names...),
		RNG:      rand.New(rand.NewPCG(7, 11)),
		Start:    now,
	})
}

// withProtocolDefaults fills the zero protocol fields the way the
// facades normalize Config.
func withProtocolDefaults(cfg ag.Config) ag.Config {
	def := ag.DefaultConfig()
	if cfg.Fanout == 0 {
		cfg.Fanout = def.Fanout
	}
	if cfg.Period == 0 {
		cfg.Period = def.Period
	}
	if cfg.BufferCapacity == 0 {
		cfg.BufferCapacity = def.BufferCapacity
	}
	if cfg.MaxAge == 0 {
		cfg.MaxAge = def.MaxAge
	}
	if cfg.Adaptation == (ag.AdaptationConfig{}) {
		cfg.Adaptation = def.Adaptation
	}
	return cfg
}
