package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	ag "adaptivegossip"
	"adaptivegossip/internal/core"
	"adaptivegossip/internal/experiments"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/transport"
)

// simRuns is how many Simulate calls one sim-paper run makes, each at
// DefaultSimConfig's horizon (150 s warm-up, 450 s window, 50 s drain),
// so a run covers about 32 simulated minutes. Rates of wall time are
// the median over the calls, behaviour is the mean.
const simRuns = 3

// simPaperConfig is the paper's default experiment point with
// adaptation on. The seed is the simulator's only input: it generates
// the traffic and every random choice.
func simPaperConfig(seed uint64, i int) ag.SimConfig {
	cfg := ag.DefaultSimConfig()
	cfg.Adaptive = true
	cfg.Seed = int64(seed*simRuns) + int64(i)
	return cfg
}

// simCall is one measured Simulate call.
type simCall struct {
	cfg       ag.SimConfig
	res       ag.SimResult
	wall, cpu time.Duration
}

// deliveries counts every delivery of the call (warm-up and drain
// included), the population its CPU time paid for.
func (c simCall) deliveries() float64 { return float64(c.res.Latency.Count) }

func (c simCall) nodeRounds() float64 {
	return float64(c.cfg.N) * float64(c.cfg.Warmup+c.cfg.Duration+drainOf(c.cfg)) / float64(c.cfg.Period)
}

// simRun is everything one sim-paper run measured.
type simRun struct {
	setup    []float64
	calls    []simCall
	rt0, rt1 goRuntime
	maxRSS   int64
	msgBytes float64 // mean v5 encoded size of a gossip message at this point
	sample   []*gossip.Message
	violated []string
}

// runSim measures set-up as a Simulate call with a one-round horizon,
// warmed and repeated like a real-time set-up, then makes the simRuns
// measured calls.
func runSim(seed uint64, capture bool) (*simRun, error) {
	run := &simRun{}
	for i := -setupWarm; i < setupReps; i++ {
		one := simPaperConfig(seed, 0)
		one.Warmup, one.Duration, one.Drain = 0, one.Period, time.Nanosecond
		runtime.GC()
		start := time.Now()
		if _, err := ag.Simulate(one); err != nil {
			return nil, fmt.Errorf("simulate set-up: %w", err)
		}
		if i >= 0 {
			run.setup = append(run.setup, time.Since(start).Seconds())
		}
	}
	run.rt0 = readGoRuntime()
	for i := 0; i < simRuns; i++ {
		cfg := simPaperConfig(seed, i)
		u0 := readUsage()
		res, err := ag.Simulate(cfg)
		u1 := readUsage()
		if err != nil {
			return nil, fmt.Errorf("simulate: %w", err)
		}
		run.calls = append(run.calls, simCall{cfg: cfg, res: res, wall: u1.wall.Sub(u0.wall), cpu: u1.cpu - u0.cpu})
		if res.OutputRate < 0.9*res.InputRate {
			run.violated = append(run.violated, fmt.Sprintf("seed %d: adaptive output %.3f msg/s is below 0.9 x input %.3f msg/s",
				cfg.Seed, res.OutputRate, res.InputRate))
		}
		run.maxRSS = u1.maxRSS
	}
	run.rt1 = readGoRuntime()
	run.sample, run.msgBytes = simMessages(simPaperConfig(seed, 0), seed, capture)
	return run, nil
}

// meanOf averages f over the calls.
func (run *simRun) meanOf(f func(c simCall) float64) float64 {
	xs := make([]float64, len(run.calls))
	for i, c := range run.calls {
		xs[i] = f(c)
	}
	return mean(xs)
}

// medianOf is the median of f over the calls.
func (run *simRun) medianOf(f func(c simCall) float64) float64 {
	xs := make([]float64, len(run.calls))
	for i, c := range run.calls {
		xs[i] = f(c)
	}
	return median(xs)
}

func (run *simRun) sumOf(f func(c simCall) float64) float64 {
	sum := 0.0
	for _, c := range run.calls {
		sum += f(c)
	}
	return sum
}

// simMessages drives the protocol nodes of cfg synchronously for a few
// dozen rounds (every message delivered at once) and returns the mean
// v5 encoded size of their gossip messages once buffers have filled,
// plus, when capture is set, a sample of the messages one node received
// — the sim-paper input of the ladder.
func simMessages(cfg ag.SimConfig, seed uint64, capture bool) ([]*gossip.Message, float64) {
	const warmRounds, rounds = 15, 40
	names := simNames(cfg.N)
	reg := membership.NewRegistry(names...)
	rng := rand.New(rand.NewPCG(seed, 0x51A))
	now := time.Unix(1_000_000, 0)
	nodes := make([]*core.AdaptiveNode, cfg.N)
	index := map[gossip.NodeID]int{}
	for i := range nodes {
		n, err := core.NewAdaptiveNode(core.NodeConfig{
			ID:       names[i],
			Gossip:   gossip.Params{Fanout: cfg.Fanout, Period: cfg.Period, MaxEvents: cfg.Buffer, MaxAge: cfg.MaxAge},
			Adaptive: true,
			Core:     simCore(cfg),
			Peers:    reg,
			RNG:      rand.New(rand.NewPCG(seed, uint64(i)+1)),
			Start:    now,
		})
		if err != nil {
			return nil, 0
		}
		nodes[i], index[names[i]] = n, i
	}
	codec := transport.DefaultCodec()
	perRound := cfg.OfferedRate / float64(cfg.N) * cfg.Period.Seconds()
	payload := make([]byte, cfg.PayloadSize)
	var sample []*gossip.Message
	var bytes, msgs float64
	for r := 0; r < rounds; r++ {
		now = now.Add(cfg.Period)
		for _, n := range nodes {
			k := int(perRound)
			if rng.Float64() < perRound-float64(k) {
				k++
			}
			for j := 0; j < k; j++ {
				n.Publish(payload, now)
			}
		}
		for _, n := range nodes {
			outs := n.Tick(now)
			for _, o := range outs {
				if r >= warmRounds {
					bytes += float64(codec.EncodedSize(o.Msg))
					msgs++
				}
				to := index[o.To]
				if capture && r >= warmRounds && to == 0 && len(sample) < captureLimit {
					sample = append(sample, o.Msg.Clone())
				}
				nodes[to].Receive(o.Msg, now)
			}
		}
	}
	return sample, ratio(bytes, msgs)
}

// endToEnd maps a sim-paper run onto the ten end-to-end metrics. The
// simulator has no wall-clock delivery and no wire: latency is virtual
// time, and wire bytes are the simulator's message count times the
// measured mean encoded size of a gossip message at this point.
func (run *simRun) endToEnd() metricSet {
	ms := metricSet{}
	ms.add("setup_s", median(run.setup))
	ms.add("deliver_p50_ms", run.meanOf(func(c simCall) float64 { return c.res.Latency.Quantile(0.50) / 1e3 }))
	ms.add("deliver_p99_ms", run.meanOf(func(c simCall) float64 { return c.res.Latency.Quantile(0.99) / 1e3 }))
	ms.add("delivery_ratio", run.meanOf(func(c simCall) float64 { return c.res.Summary.MeanReceiversPct / 100 }))
	ms.add("atomic_pct", run.meanOf(func(c simCall) float64 { return c.res.Summary.AtomicityPct }))
	ms.add("admit_ratio", run.meanOf(func(c simCall) float64 { return ratio(c.res.InputRate, c.res.OfferedRate) }))
	ms.add("cpu_us_per_delivery", run.medianOf(func(c simCall) float64 {
		return ratio(float64(c.cpu.Microseconds()), c.deliveries())
	}))
	sent := run.sumOf(func(c simCall) float64 { return float64(c.res.Network.Sent) })
	ms.add("wire_bytes_per_delivery", ratio(sent*run.msgBytes, run.sumOf(simCall.deliveries)))
	ms.add("max_rss_mb", float64(run.maxRSS)/(1<<20))
	ms.add("sim_node_rounds_per_s", run.medianOf(func(c simCall) float64 { return ratio(c.nodeRounds(), c.wall.Seconds()) }))
	return ms
}

func drainOf(cfg ag.SimConfig) time.Duration {
	if cfg.Drain == 0 {
		return time.Duration(cfg.MaxAge) * cfg.Period
	}
	return cfg.Drain
}

// simNames are the simulator's member names.
func simNames(n int) []gossip.NodeID {
	out := make([]gossip.NodeID, n)
	for i := range out {
		out[i] = gossip.NodeID(fmt.Sprintf("n%03d", i))
	}
	return out
}

// simCore is the adaptation configuration Simulate gives every sender.
func simCore(cfg ag.SimConfig) ag.AdaptationConfig {
	return experiments.DefaultExperimentCore(cfg.OfferedRate / float64(cfg.N))
}

// simLadderSpec replays messages against the simulator's node settings.
func simLadderSpec(cfg ag.SimConfig) ladderSpec {
	return ladderSpec{
		cfg: ag.Config{Fanout: cfg.Fanout, Period: cfg.Period, BufferCapacity: cfg.Buffer,
			MaxAge: cfg.MaxAge, Adaptive: true, Adaptation: simCore(cfg)},
		groupCap: cfg.Buffer,
		names:    simNames(cfg.N),
	}
}
