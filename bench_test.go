package adaptivegossip

// The figure benchmarks regenerate compact versions of every table and
// figure in the paper's evaluation and report the headline metric of
// each via b.ReportMetric (full-fidelity runs: cmd/gossipsim). The
// micro benchmarks cover the protocol hot paths.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/experiments"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/ratelimit"
	"adaptivegossip/internal/recovery"
	"adaptivegossip/internal/sim"
	"adaptivegossip/internal/transport"
)

// benchBase is a reduced-scale experiment configuration: 24 nodes,
// fanout 4, buffer/rate axes scaled like the paper's but with shorter
// measurement windows so a bench iteration stays ≈100ms.
func benchBase() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.N = 24
	cfg.Warmup = 100 * time.Second
	cfg.Duration = 150 * time.Second
	return cfg
}

// BenchmarkFigure2ReliabilityVsRate regenerates Figure 2 (reliability
// degradation of static lpbcast): reports atomicity at the paper's
// 30 msg/s operating point and at 2× that rate.
func BenchmarkFigure2ReliabilityVsRate(b *testing.B) {
	var at30, at60 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure2(benchBase(), []float64{30, 60}, 1)
		if err != nil {
			b.Fatal(err)
		}
		at30, at60 = rows[0].AtomicityPct, rows[1].AtomicityPct
	}
	b.ReportMetric(at30, "atomic30pct")
	b.ReportMetric(at60, "atomic60pct")
}

// BenchmarkFigure4MaxRateVsBuffer regenerates Figure 4 (maximum input
// rate per buffer size): reports the measured slope max-rate/buffer.
func BenchmarkFigure4MaxRateVsBuffer(b *testing.B) {
	var slope float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure4(benchBase(), []int{60, 120}, 95, 1)
		if err != nil {
			b.Fatal(err)
		}
		slope = rows[1].MaxRate / float64(rows[1].Buffer)
	}
	b.ReportMetric(slope, "maxrate/buf")
}

// BenchmarkTable1CriticalAge regenerates the §2.3 calibration: the
// average dropped age at the maximum rate, constant across buffers
// (paper: 5.3 hops; this system: ≈5.4).
func BenchmarkTable1CriticalAge(b *testing.B) {
	var ta, spread float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure4(benchBase(), []int{60, 120}, 95, 1)
		if err != nil {
			b.Fatal(err)
		}
		ta = experiments.CriticalAge(rows)
		spread = experiments.CriticalAgeSpread(rows)
	}
	b.ReportMetric(ta, "ta_hops")
	b.ReportMetric(spread, "spread_hops")
}

// BenchmarkFigure6AdaptiveVsIdeal regenerates Figure 6: the ratio of
// the adaptive allowed rate to the ideal maximum under congestion, and
// the fraction of the offered load accepted when uncongested.
func BenchmarkFigure6AdaptiveVsIdeal(b *testing.B) {
	var trackRatio, acceptRatio float64
	for i := 0; i < b.N; i++ {
		base := benchBase()
		fig4, err := experiments.RunFigure4(base, []int{60}, 95, 1)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.RunFigure6(base, []int{60, 180}, fig4, 1)
		if err != nil {
			b.Fatal(err)
		}
		trackRatio = rows[0].Allowed / fig4[0].MaxRate
		acceptRatio = rows[1].Input / rows[1].Offered
	}
	b.ReportMetric(trackRatio, "allowed/ideal")
	b.ReportMetric(acceptRatio, "accepted/offered")
}

// BenchmarkFigure7RatesAndAges regenerates Figure 7: reports the
// output/input ratios of both algorithms at an overloaded buffer size.
func BenchmarkFigure7RatesAndAges(b *testing.B) {
	var lpGoodput, adGoodput, lpAge, adAge float64
	for i := 0; i < b.N; i++ {
		rows7, _, err := experiments.RunFigures78(benchBase(), []int{60}, 1)
		if err != nil {
			b.Fatal(err)
		}
		r := rows7[0]
		lpGoodput = r.LpOutput / r.LpInput
		adGoodput = r.AdOutput / r.AdInput
		lpAge, adAge = r.LpDroppedAge, r.AdDroppedAge
	}
	b.ReportMetric(lpGoodput, "lp_out/in")
	b.ReportMetric(adGoodput, "ad_out/in")
	b.ReportMetric(lpAge, "lp_age")
	b.ReportMetric(adAge, "ad_age")
}

// BenchmarkFigure8Reliability regenerates Figure 8: atomicity of both
// algorithms at an overloaded buffer size.
func BenchmarkFigure8Reliability(b *testing.B) {
	var lp, ad float64
	for i := 0; i < b.N; i++ {
		_, rows8, err := experiments.RunFigures78(benchBase(), []int{60}, 1)
		if err != nil {
			b.Fatal(err)
		}
		lp, ad = rows8[0].LpAtomicity, rows8[0].AdAtomicity
	}
	b.ReportMetric(lp, "lp_atomic_pct")
	b.ReportMetric(ad, "ad_atomic_pct")
}

// BenchmarkFigure9DynamicBuffers regenerates Figure 9 (simulation):
// the adaptive vs baseline atomicity during the constrained phase.
func BenchmarkFigure9DynamicBuffers(b *testing.B) {
	var ad, lp, allowed float64
	for i := 0; i < b.N; i++ {
		base := benchBase()
		base.OfferedRate = 20
		base.Warmup = 0
		cfg := experiments.Figure9Config{
			Base:            base,
			InitialBuffer:   90,
			ReducedBuffer:   45,
			RecoveredBuffer: 60,
			Fraction:        0.2,
			ChangeAt1:       100 * time.Second,
			ChangeAt2:       200 * time.Second,
			Total:           300 * time.Second,
		}
		res, err := experiments.RunFigure9Sim(cfg)
		if err != nil {
			b.Fatal(err)
		}
		phases := res.Phases(50 * time.Second)
		ad, lp = phases[1].AtomicityAdaptive, phases[1].AtomicityLpbcast
		allowed = phases[1].MeanAllowed
	}
	b.ReportMetric(ad, "ad_atomic_pct")
	b.ReportMetric(lp, "lp_atomic_pct")
	b.ReportMetric(allowed, "allowed_msgs")
}

// BenchmarkAblationRandomization (A1): allowed-rate oscillation with
// and without randomized increases.
func BenchmarkAblationRandomization(b *testing.B) {
	var stdRandomized, stdSynchronized float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationRandomization(benchBase(), 1)
		if err != nil {
			b.Fatal(err)
		}
		stdRandomized, stdSynchronized = rows[0].AllowedStd, rows[1].AllowedStd
	}
	b.ReportMetric(stdRandomized, "std_pr25")
	b.ReportMetric(stdSynchronized, "std_pr100")
}

// BenchmarkAblationTokenCheck (A2): allowance inflation without the
// avgTokens guard.
func BenchmarkAblationTokenCheck(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationTokenCheck(benchBase(), 1)
		if err != nil {
			b.Fatal(err)
		}
		with, without = rows[0].AllowedMean, rows[1].AllowedMean
	}
	b.ReportMetric(with, "allowed_guarded")
	b.ReportMetric(without, "allowed_unguarded")
}

// BenchmarkAblationWindow (A3): capacity reclaimed after recovery for
// W=1 vs W=4.
func BenchmarkAblationWindow(b *testing.B) {
	var w1, w4 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationWindow(benchBase(), []int{1, 4}, 1)
		if err != nil {
			b.Fatal(err)
		}
		w1, w4 = rows[0].AllowedMean, rows[1].AllowedMean
	}
	b.ReportMetric(w1, "allowed_W1")
	b.ReportMetric(w4, "allowed_W4")
}

// BenchmarkAblationAlpha (A4): allowed-rate oscillation for α=0.5 vs
// α=0.9.
func BenchmarkAblationAlpha(b *testing.B) {
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationAlpha(benchBase(), []float64{0.5, 0.9}, 1)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi = rows[0].AllowedStd, rows[1].AllowedStd
	}
	b.ReportMetric(lo, "std_a50")
	b.ReportMetric(hi, "std_a90")
}

// --- protocol micro benchmarks -------------------------------------

// BenchmarkIDCacheAdd measures the dedup cache at steady state.
func BenchmarkIDCacheAdd(b *testing.B) {
	c, err := gossip.NewIDCache(3600)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(gossip.EventID{Origin: "bench", Seq: uint64(i)})
	}
}

func benchMessage() *gossip.Message {
	msg := &gossip.Message{From: "bench", Adaptive: true, SamplePeriod: 9, MinBuff: 90}
	payload := make([]byte, 64)
	for i := 0; i < 120; i++ {
		msg.Events = append(msg.Events, gossip.Event{
			ID:      gossip.EventID{Origin: "origin", Seq: uint64(i)},
			Age:     i % 10,
			Payload: payload,
		})
	}
	return msg
}

// BenchmarkCodecRoundTrip measures a full encode+decode of a gossip
// message including a recovery digest — the per-message wire cost with
// the anti-entropy subsystem on.
func BenchmarkCodecRoundTrip(b *testing.B) {
	msg := benchMessage()
	for i := 0; i < recovery.DefaultDigestLen; i++ {
		msg.Digest = append(msg.Digest, gossip.EventID{Origin: "origin", Seq: uint64(i)})
	}
	c := transport.DefaultCodec()
	data, err := c.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := c.Encode(msg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryDigestDiff measures the receiver-side hot path of
// the anti-entropy subsystem: diffing an incoming digest against the
// node's seen set. Half the digest is known, half missing — the
// steady-state shape under loss.
func BenchmarkRecoveryDigestDiff(b *testing.B) {
	reg := membership.NewRegistry("a", "b")
	node, err := gossip.NewNode("a",
		gossip.Params{Fanout: 4, Period: time.Second, MaxEvents: 120, MaxAge: 10},
		reg, rand.New(rand.NewPCG(21, 22)))
	if err != nil {
		b.Fatal(err)
	}
	digest := make([]gossip.EventID, recovery.DefaultDigestLen)
	for i := range digest {
		digest[i] = gossip.EventID{Origin: "b", Seq: uint64(i)}
		if i%2 == 0 {
			node.Receive(&gossip.Message{From: "b", Events: []gossip.Event{{ID: digest[i]}}})
		}
	}
	b.ReportMetric(float64(len(digest)), "ids/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if missing := recovery.DiffDigest(node, digest); len(missing) != len(digest)/2 {
			b.Fatalf("expected %d missing, got %d", len(digest)/2, len(missing))
		}
	}
}

// BenchmarkRegistrySample measures fanout target selection from a
// 60-member registry.
func BenchmarkRegistrySample(b *testing.B) {
	ids := make([]gossip.NodeID, 60)
	for i := range ids {
		ids[i] = gossip.NodeID(fmt.Sprintf("n%03d", i))
	}
	reg := membership.NewRegistry(ids...)
	rng := rand.New(rand.NewPCG(5, 6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.SamplePeers("n000", 4, rng)
	}
}

// BenchmarkTokenBucket measures the admission fast path.
func BenchmarkTokenBucket(b *testing.B) {
	bucket, err := ratelimit.NewBucket(5, 1e9, time.Unix(0, 0))
	if err != nil {
		b.Fatal(err)
	}
	now := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Microsecond)
		bucket.TryTake(now)
	}
}

// BenchmarkAdaptorOnReceive measures the adaptation hook on the
// receive path (minBuff fold + congestion scan).
func BenchmarkAdaptorOnReceive(b *testing.B) {
	reg := membership.NewRegistry("a", "b")
	cp := core.DefaultParams()
	node, err := core.NewAdaptiveNode(core.NodeConfig{
		ID:       "a",
		Gossip:   gossip.Params{Fanout: 4, Period: time.Second, MaxEvents: 120, MaxAge: 10},
		Adaptive: true,
		Core:     cp,
		Peers:    reg,
		RNG:      rand.New(rand.NewPCG(7, 8)),
		Start:    time.Unix(0, 0),
	})
	if err != nil {
		b.Fatal(err)
	}
	now := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events := make([]gossip.Event, 40)
		for j := range events {
			events[j] = gossip.Event{
				ID:  gossip.EventID{Origin: "b", Seq: uint64(i*40 + j)},
				Age: j % 10,
			}
		}
		node.Receive(&gossip.Message{
			From: "b", Adaptive: true, SamplePeriod: uint64(i / 6), MinBuff: 90,
			Events: events,
		}, now)
		now = now.Add(10 * time.Millisecond)
	}
}

// BenchmarkSimulatedRound measures one full simulated gossip round of
// the paper's 60-node configuration (all ticks + deliveries).
func BenchmarkSimulatedRound(b *testing.B) {
	sched := sim.NewScheduler(sim.Epoch)
	network, err := sim.NewNetwork(sched, sim.DeriveRNG(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	const n = 60
	names := make([]gossip.NodeID, n)
	for i := range names {
		names[i] = gossip.NodeID(fmt.Sprintf("n%03d", i))
	}
	reg := membership.NewRegistry(names...)
	nodes := make([]*core.AdaptiveNode, n)
	for i := range nodes {
		node, err := core.NewAdaptiveNode(core.NodeConfig{
			ID:       names[i],
			Gossip:   gossip.Params{Fanout: 4, Period: 5 * time.Second, MaxEvents: 120, MaxAge: 10},
			Adaptive: true,
			Core:     core.DefaultParams(),
			Peers:    reg,
			RNG:      sim.DeriveRNG(2, uint64(i)),
			Start:    sim.Epoch,
		})
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = node
		name := names[i]
		_ = name
		network.Attach(names[i], func(m *gossip.Message) { node.Receive(m, sched.Now()) })
	}
	// Pre-load some traffic.
	for i := 0; i < 150; i++ {
		nodes[i%n].Publish(nil, sched.Now())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, node := range nodes {
			for _, out := range node.Tick(sched.Now()) {
				//gossip:scratchok sched.RunFor below drains every delivery before any node's next Tick refreshes its round message
				network.Send(names[j], out.To, out.Msg)
			}
		}
		sched.RunFor(5 * time.Second)
		nodes[i%n].Publish(nil, sched.Now())
	}
	b.ReportMetric(n, "nodes")
}
