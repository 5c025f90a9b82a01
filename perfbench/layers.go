package main

import (
	"slices"

	ag "adaptivegossip"
)

// metric is one reported metric: its name and unit as BENCHMARK.json
// declares them.
type metric struct{ name, unit string }

// endToEnd lists the metrics a run without tracing prints, in order.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"deliver_p50_ms", "ms"},
	{"deliver_p99_ms", "ms"},
	{"delivery_ratio", "ratio"},
	{"atomic_pct", "%"},
	{"admit_ratio", "ratio"},
	{"cpu_us_per_delivery", "us"},
	{"wire_bytes_per_delivery", "B"},
	{"max_rss_mb", "MiB"},
	{"sim_node_rounds_per_s", "1/s"},
}

// perLayer lists every per-layer metric of a traced run, in order. A
// workload that bypasses a layer reports 0 for it.
var perLayer = []metric{
	{"transport.send_us_mean", "us"},
	{"transport.send_us_p99", "us"},
	{"transport.send_calls", "count"},
	{"transport.datagrams_sent", "count"},
	{"transport.bytes_sent", "B"},
	{"transport.split_chunks", "count"},
	{"transport.send_errors", "count"},
	{"transport.transit_us_p50", "us"},
	{"transport.transit_us_p99", "us"},
	{"transport.recv_queue_drops", "count"},
	{"transport.read_errors", "count"},
	{"transport.control_msgs_share", "ratio"},
	{"codec.encode_us_per_msg", "us"},
	{"codec.decode_us_per_msg", "us"},
	{"codec.decode_allocs_per_msg", "count"},
	{"codec.decode_bytes_per_msg", "B"},
	{"codec.events_per_msg", "count"},
	{"codec.compress_ratio", "ratio"},
	{"runtime.tick_us_mean", "us"},
	{"runtime.ticks", "count"},
	{"runtime.receive_us_mean", "us"},
	{"runtime.receives", "count"},
	{"runtime.busy_ms_per_s", "ms/s"},
	{"runtime.round_events_mean", "count"},
	{"runtime.handoff_to_deliver_us_p50", "us"},
	{"runtime.handoff_to_deliver_us_p99", "us"},
	{"facade.publish_us_p50", "us"},
	{"facade.publish_us_p99", "us"},
	{"facade.publish_self_us_mean", "us"},
	{"facade.publish_refused", "count"},
	{"harness.gen_lag_p99_ms", "ms"},
	{"harness.gen_lag_max_ms", "ms"},
	{"harness.latency_samples", "count"},
	{"core.receive_us_per_msg", "us"},
	{"core.receive_allocs_per_msg", "count"},
	{"core.tick_us_per_round", "us"},
	{"gossip.dropped_capacity_per_s", "1/s"},
	{"gossip.dropped_expired_per_s", "1/s"},
	{"adaptation.allowed_rate_sum_mean", "msg/s"},
	{"adaptation.allowed_rate_min_mean", "msg/s"},
	{"adaptation.minbuff_error", "count"},
	{"recovery.events_recovered", "count"},
	{"failure.probes_sent", "count"},
	{"failure.confirms", "count"},
	{"health.digests_sent", "count"},
	{"health.digests_merged", "count"},
	{"goruntime.alloc_bytes_per_delivery", "B"},
	{"goruntime.gc_cycles_per_s", "1/s"},
	{"goruntime.gc_cpu_pct", "%"},
	{"sim.messages", "count"},
	{"sim.dropped_events", "count"},
	{"sim.input_rate", "msg/s"},
	{"sim.allowed_rate", "msg/s"},
	{"tracing.cpu_us_per_delivery_untraced", "us"},
	{"tracing.cpu_us_per_delivery_traced", "us"},
	{"tracing.cpu_overhead_pct", "%"},
	{"tracing.deliver_p50_ms_untraced", "ms"},
	{"tracing.deliver_p50_ms_traced", "ms"},
	{"tracing.deliver_p50_delta_ms", "ms"},
	{"tracing.spans_written", "count"},
}

func genLagMS(g genStats, q float64) float64 {
	s := slices.Clone(g.lagNS)
	slices.Sort(s)
	return quantile(s, q) / 1e6
}

// tracingOverhead reports the traced run's cost and latency beside the
// untraced run's.
func tracingOverhead(ms metricSet, base, traced metricSet) {
	cb, ct := base["cpu_us_per_delivery"], traced["cpu_us_per_delivery"]
	lb, lt := base["deliver_p50_ms"], traced["deliver_p50_ms"]
	ms.add("tracing.cpu_us_per_delivery_untraced", cb)
	ms.add("tracing.cpu_us_per_delivery_traced", ct)
	ms.add("tracing.cpu_overhead_pct", 100*ratio(ct-cb, cb))
	ms.add("tracing.deliver_p50_ms_untraced", lb)
	ms.add("tracing.deliver_p50_ms_traced", lt)
	ms.add("tracing.deliver_p50_delta_ms", lt-lb)
}

func addLadder(ms metricSet, lad ladderResult) {
	ms.add("codec.encode_us_per_msg", lad.encodeUS)
	ms.add("codec.decode_us_per_msg", lad.decodeUS)
	ms.add("codec.decode_allocs_per_msg", lad.decodeAllocs)
	ms.add("codec.decode_bytes_per_msg", lad.decodeBytes)
	ms.add("codec.events_per_msg", lad.eventsPerMsg)
	ms.add("core.receive_us_per_msg", lad.receiveUS)
	ms.add("core.receive_allocs_per_msg", lad.receiveAllocs)
	ms.add("core.tick_us_per_round", lad.tickUS)
}

// perLayer computes the traced real-time run's per-layer metrics.
func (run *rtRun) perLayer(tr *tracer, lad ladderResult, base rtRuns) metricSet {
	ms := metricSet{}
	b, a := run.before, run.after
	windowS := a.use.wall.Sub(b.use.wall).Seconds()
	deliveries := float64(a.deliveries - b.deliveries)

	var send, transit, handoff durations
	var calls, msgs, control int
	for _, e := range tr.eps {
		send = append(send, e.sendNS...)
		transit = append(transit, e.transitNS...)
		handoff = append(handoff, e.handoffNS...)
		calls += e.sendCalls
		msgs += e.msgsSent
		control += e.controlSent
	}
	sendMean, _, sendP99 := send.summary()
	_, transitP50, transitP99 := transit.summary()
	_, handoffP50, handoffP99 := handoff.summary()
	ms.add("transport.send_us_mean", sendMean)
	ms.add("transport.send_us_p99", sendP99)
	ms.add("transport.send_calls", float64(calls))
	ms.add("transport.datagrams_sent", float64(a.udp.Sent-b.udp.Sent))
	ms.add("transport.bytes_sent", float64(a.udp.SentBytes-b.udp.SentBytes))
	ms.add("transport.split_chunks", float64(a.udp.SplitChunks-b.udp.SplitChunks))
	ms.add("transport.send_errors", float64(a.udp.SendErrors-b.udp.SendErrors))
	ms.add("transport.transit_us_p50", transitP50)
	ms.add("transport.transit_us_p99", transitP99)
	ms.add("transport.recv_queue_drops", float64(a.udp.RecvQueueDrops-b.udp.RecvQueueDrops))
	ms.add("transport.read_errors", float64(a.udp.ReadErrors-b.udp.ReadErrors))
	ms.add("transport.control_msgs_share", ratio(float64(control), float64(msgs)))

	addLadder(ms, lad)
	pre := float64(a.stats.Wire.PreCompressionBytes - b.stats.Wire.PreCompressionBytes)
	post := float64(a.stats.Wire.PostCompressionBytes - b.stats.Wire.PostCompressionBytes)
	ms.add("codec.compress_ratio", ratio(pre, post))

	dp := func(name string) float64 { return a.prom.get(name) - b.prom.get(name) }
	ticks, receives := dp("gossip_tick_nanos_count"), dp("gossip_receive_nanos_count")
	ms.add("runtime.tick_us_mean", ratio(dp("gossip_tick_nanos_sum"), ticks)/1e3)
	ms.add("runtime.ticks", ticks)
	ms.add("runtime.receive_us_mean", ratio(dp("gossip_receive_nanos_sum"), receives)/1e3)
	ms.add("runtime.receives", receives)
	ms.add("runtime.busy_ms_per_s", ratio((dp("gossip_tick_nanos_sum")+dp("gossip_receive_nanos_sum"))/1e6, windowS))
	ms.add("runtime.round_events_mean", ratio(dp("gossip_round_events_sum"), dp("gossip_round_events_count")))
	ms.add("runtime.handoff_to_deliver_us_p50", handoffP50)
	ms.add("runtime.handoff_to_deliver_us_p99", handoffP99)

	_, pubP50, pubP99 := run.gen.publishNS.summary()
	ms.add("facade.publish_us_p50", pubP50)
	ms.add("facade.publish_us_p99", pubP99)
	ms.add("facade.publish_self_us_mean", tr.selfMeanUS("facade.publish"))
	ms.add("facade.publish_refused", float64(run.out.refused))
	ms.add("harness.gen_lag_p99_ms", genLagMS(run.gen, 0.99))
	ms.add("harness.gen_lag_max_ms", genLagMS(run.gen, 1))
	ms.add("harness.latency_samples", float64(len(run.out.latNS)))

	ds := func(f func(ag.Stats) uint64) float64 { return float64(f(a.stats) - f(b.stats)) }
	ms.add("gossip.dropped_capacity_per_s", ratio(ds(func(s ag.Stats) uint64 { return s.DroppedCapacity }), windowS))
	ms.add("gossip.dropped_expired_per_s", ratio(ds(func(s ag.Stats) uint64 { return s.DroppedExpired }), windowS))
	var sums, mins, errs []float64
	for _, s := range run.adaptation {
		sums, mins, errs = append(sums, s.sum), append(mins, s.min), append(errs, float64(s.err))
	}
	ms.add("adaptation.allowed_rate_sum_mean", mean(sums))
	ms.add("adaptation.allowed_rate_min_mean", mean(mins))
	ms.add("adaptation.minbuff_error", mean(errs))
	ms.add("recovery.events_recovered", ds(func(s ag.Stats) uint64 { return s.EventsRecovered }))
	ms.add("failure.probes_sent", ds(func(s ag.Stats) uint64 { return s.ProbesSent }))
	ms.add("failure.confirms", ds(func(s ag.Stats) uint64 { return s.Confirms }))
	ms.add("health.digests_sent", ds(func(s ag.Stats) uint64 { return s.HealthDigestsSent }))
	ms.add("health.digests_merged", ds(func(s ag.Stats) uint64 { return s.HealthDigestsMerged }))

	cpu := (a.use.cpu - b.use.cpu).Seconds()
	ms.add("goruntime.alloc_bytes_per_delivery", ratio(a.use.rt.allocBytes-b.use.rt.allocBytes, deliveries))
	ms.add("goruntime.gc_cycles_per_s", ratio(a.use.rt.gcCycles-b.use.rt.gcCycles, windowS))
	ms.add("goruntime.gc_cpu_pct", 100*ratio(a.use.rt.gcCPU-b.use.rt.gcCPU, cpu))

	tracingOverhead(ms, base.endToEnd(), rtRuns{run}.endToEnd())
	return ms
}

// perLayer computes the traced sim-paper run's per-layer metrics. The
// wire, runtime and facade layers are bypassed and report 0.
func (run *simRun) perLayer(lad ladderResult, base *simRun) metricSet {
	ms := metricSet{}
	addLadder(ms, lad)
	dropped := run.sumOf(func(c simCall) float64 { return float64(c.res.DroppedEvents) })
	window := run.sumOf(func(c simCall) float64 { return c.cfg.Duration.Seconds() })
	ms.add("gossip.dropped_capacity_per_s", ratio(dropped, window))
	ms.add("adaptation.allowed_rate_sum_mean", run.meanOf(func(c simCall) float64 { return c.res.AllowedRate }))
	ms.add("adaptation.minbuff_error", run.meanOf(func(c simCall) float64 {
		return float64(abs(c.res.MinBuffFinal - c.cfg.Buffer))
	}))
	wall := run.sumOf(func(c simCall) float64 { return c.wall.Seconds() })
	cpu := run.sumOf(func(c simCall) float64 { return c.cpu.Seconds() })
	ms.add("goruntime.alloc_bytes_per_delivery", ratio(run.rt1.allocBytes-run.rt0.allocBytes, run.sumOf(simCall.deliveries)))
	ms.add("goruntime.gc_cycles_per_s", ratio(run.rt1.gcCycles-run.rt0.gcCycles, wall))
	ms.add("goruntime.gc_cpu_pct", 100*ratio(run.rt1.gcCPU-run.rt0.gcCPU, cpu))
	ms.add("sim.messages", run.sumOf(func(c simCall) float64 { return float64(c.res.Network.Sent) }))
	ms.add("sim.dropped_events", dropped)
	ms.add("sim.input_rate", run.meanOf(func(c simCall) float64 { return c.res.InputRate }))
	ms.add("sim.allowed_rate", run.meanOf(func(c simCall) float64 { return c.res.AllowedRate }))
	tracingOverhead(ms, base.endToEnd(), run.endToEnd())
	return ms
}

// selfMeanUS is the mean self time of the kept spans named name.
func (t *tracer) selfMeanUS(name string) float64 {
	t.spanMu.Lock()
	spans := slices.Clone(t.spans)
	t.spanMu.Unlock()
	self := selfTimes(spans)
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(self[s.ID])/1e3)
		}
	}
	return mean(xs)
}
