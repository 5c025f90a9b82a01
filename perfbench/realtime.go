package main

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	ag "adaptivegossip"
)

// Publish outcomes recorded per slot.
const (
	statePending int32 = iota
	stateAdmitted
	stateRefused
	stateError
)

// atomicThreshold is the paper's atomicity bar: an event is atomic when
// it reached at least this share of its group.
const atomicThreshold = 0.95

// rtGroup is one running system under test, seen from the generator.
type rtGroup interface {
	// route names the member (and topic index, -1 outside pub/sub) that
	// publishes the k-th offered event, and the members that must
	// deliver it, as a bitmask.
	route(k int) (member, topic int, group uint32)
	publish(member, topic int, payload []byte) (bool, error)
	stats() ag.Stats
	debugAddr() string
	// adaptation samples the summed and smallest allowed rate and the
	// largest |minBuff estimate - true group minimum| over members.
	adaptation() (sum, min float64, minBuffErr int)
	close() error
}

// rtWorkload describes one real-time workload over loopback UDP.
type rtWorkload struct {
	members     int
	period      time.Duration
	rate        float64 // offered publishes per second
	payload     int     // bytes
	warmup      time.Duration
	drain       time.Duration
	loss        float64
	compression string
	topics      []ag.Topic // nil outside pub/sub
	cfg         ag.Config  // protocol settings, for the ladder
	// groups is how many independent groups an untraced run builds
	// and drives one after another, each for an equal share of the
	// window (0 means 1). Tick phases and message timing settle into a
	// different pattern in every group, and on pub/sub that pattern
	// moves latency and wire bytes by up to a fifth; several groups
	// per run average it out.
	groups   int
	groupCap int // buffer capacity of one group's node
	// build constructs, starts and finishes setting up the group on
	// fabric; deliver observes every delivery.
	build func(ctx context.Context, fabric ag.Transport, deliver ag.DeliverFunc, debug string) (rtGroup, error)
}

// slot tracks one offered publish.
type slot struct {
	due       int64 // ns since the generator epoch
	member    int32
	topic     int32
	group     uint32
	state     atomic.Int32
	delivered atomic.Uint32 // members that delivered, at any time
	onTime    atomic.Uint32 // members that delivered by the drain deadline
	bad       atomic.Bool   // an output check tripped on this event
	pubSpan   atomic.Uint64 // traced runs: id of the Publish span
}

// memberLog is written only from one member's delivery callback, which
// the facades serialize per member.
type memberLog struct {
	lat        [][]int64 // ns, on-time deliveries of window events, by sub-window
	deliveries atomic.Uint64
	_          [32]byte // keep members' counters on separate cache lines
}

// recorder checks and times every delivery of one run.
type recorder struct {
	w        *rtWorkload
	epoch    time.Time
	slots    []slot
	names    map[ag.NodeID]int
	ids      []ag.NodeID // member names by index
	winLo    int         // window publishes are slots [winLo, winHi)
	winHi    int
	subs     int   // the window is split into this many sub-windows
	deadline int64 // ns since epoch; later deliveries count as missed
	members  []memberLog
	tracer   *tracer // nil in untraced runs

	violMu     sync.Mutex
	violations int
	unplaced   int // violations not attributable to a window publish
	firstViol  string
}

func newRecorder(w *rtWorkload, window time.Duration) *recorder {
	interval := time.Duration(float64(time.Second) / w.rate)
	total := w.warmup + window + w.drain
	r := &recorder{
		w:        w,
		slots:    make([]slot, int(total/interval)),
		names:    make(map[ag.NodeID]int, w.members),
		winLo:    int(w.warmup / interval),
		winHi:    int((w.warmup + window) / interval),
		subs:     max(1, int(window/time.Second)),
		deadline: int64(w.warmup + window + w.drain),
		members:  make([]memberLog, w.members),
	}
	for i := range r.members {
		r.members[i].lat = make([][]int64, r.subs)
	}
	// The facades' default member names.
	prefix := "node-"
	if w.topics != nil {
		prefix = "peer-"
	}
	for i := 0; i < w.members; i++ {
		id := ag.NodeID(fmt.Sprintf("%s%02d", prefix, i))
		r.names[id] = i
		r.ids = append(r.ids, id)
	}
	for k := range r.slots {
		r.slots[k].due = int64(time.Duration(k) * interval)
	}
	return r
}

func (r *recorder) inWindow(seq int) bool { return seq >= r.winLo && seq < r.winHi }

// sub is the sub-window a window publish is due in.
func (r *recorder) sub(seq int) int { return (seq - r.winLo) * r.subs / (r.winHi - r.winLo) }

func (r *recorder) violate(s *slot, seq int, format string, args ...any) {
	r.violMu.Lock()
	defer r.violMu.Unlock()
	r.violations++
	if s == nil || !r.inWindow(seq) {
		r.unplaced++
	}
	if s != nil {
		s.bad.Store(true)
	}
	if r.firstViol == "" {
		r.firstViol = fmt.Sprintf(format, args...)
	}
}

// deliver is the WithDeliver callback: it runs the output checks and
// records the due-time → delivery latency.
func (r *recorder) deliver(d ag.Delivery) {
	at := time.Now()
	now := at.Sub(r.epoch).Nanoseconds()
	m, ok := r.names[d.Node]
	if !ok {
		r.violate(nil, -1, "delivery at unknown member %q", d.Node)
		return
	}
	seq64, due, err := parsePayload(d.Event.Payload)
	if err != nil {
		r.violate(nil, -1, "member %s: event %v: %v", d.Node, d.Event.ID, err)
		return
	}
	if seq64 >= uint64(len(r.slots)) {
		r.violate(nil, -1, "member %s: sequence %d was never offered", d.Node, seq64)
		return
	}
	seq := int(seq64)
	s := &r.slots[seq]
	bit := uint32(1) << m
	switch {
	case s.due != due:
		r.violate(s, seq, "seq %d: due time %d in payload, %d offered", seq, due, s.due)
	case d.Event.ID.Origin != r.memberName(int(s.member)):
		r.violate(s, seq, "seq %d: origin %s, published by member %d", seq, d.Event.ID.Origin, s.member)
	case r.w.topics != nil && (s.topic < 0 || d.Topic != r.w.topics[s.topic]):
		r.violate(s, seq, "seq %d: delivered on topic %q", seq, d.Topic)
	case s.group&bit == 0:
		r.violate(s, seq, "seq %d: delivered to %s, which is outside its group", seq, d.Node)
	}
	if old := s.delivered.Or(bit); old&bit != 0 {
		r.violate(s, seq, "seq %d: delivered twice to %s", seq, d.Node)
		return
	}
	ml := &r.members[m]
	ml.deliveries.Add(1)
	if r.inWindow(seq) && now <= r.deadline {
		s.onTime.Or(bit)
		sub := r.sub(seq)
		ml.lat[sub] = append(ml.lat[sub], now-due)
	}
	if r.tracer != nil {
		r.tracer.delivered(m, seq, s, at)
	}
}

func (r *recorder) memberName(i int) ag.NodeID { return r.ids[i] }

func (r *recorder) deliveries() uint64 {
	var n uint64
	for i := range r.members {
		n += r.members[i].deliveries.Load()
	}
	return n
}

// genStats is what the generator measured about itself.
type genStats struct {
	lagNS     []float64 // window publishes: start - due
	publishNS durations // window publishes: Publish call duration
}

// generate is the open-loop generator: publish k is due at k×interval
// after the epoch, round-robin over members, whatever the system's
// state. It returns once every slot is offered or ctx ends.
func (r *recorder) generate(ctx context.Context, g rtGroup, c *corpus) genStats {
	var gs genStats
	for k := range r.slots {
		if ctx.Err() != nil {
			break
		}
		s := &r.slots[k]
		dueAt := r.epoch.Add(time.Duration(s.due))
		if d := time.Until(dueAt); d > 0 {
			time.Sleep(d)
		}
		p := c.payload(uint64(k), s.due, r.w.payload)
		start := time.Now()
		var span uint64
		if r.tracer != nil {
			span = r.tracer.newID()
			s.pubSpan.Store(span)
		}
		admitted, err := g.publish(int(s.member), int(s.topic), p)
		end := time.Now()
		switch {
		case err != nil:
			// A failed publish is a failed operation, not a wrong output.
			s.state.Store(stateError)
		case admitted:
			s.state.Store(stateAdmitted)
		default:
			s.state.Store(stateRefused)
		}
		if r.inWindow(k) {
			gs.lagNS = append(gs.lagNS, float64(start.Sub(dueAt)))
			gs.publishNS = append(gs.publishNS, int64(end.Sub(start)))
		}
		if r.tracer != nil {
			r.tracer.published(k, span, int(s.member), start, end)
		}
	}
	return gs
}

// checkRefusals flags refused or failed publishes that were delivered
// anyway. It runs after the group is closed.
func (r *recorder) checkRefusals() {
	for k := range r.slots {
		s := &r.slots[k]
		if s.state.Load() != stateAdmitted && s.delivered.Load() != 0 {
			r.violate(s, k, "seq %d: delivered although its publish was not admitted", k)
		}
	}
}

// outcome summarizes the window's publishes.
type outcome struct {
	offered, admitted, refused, failed int
	deliveredPairs, expectedPairs      int
	atomic                             int
	latNS                              []float64   // all window samples, sorted
	subLatNS                           [][]float64 // per sub-window, sorted
}

func (r *recorder) outcome() outcome {
	var o outcome
	for k := r.winLo; k < r.winHi; k++ {
		s := &r.slots[k]
		o.offered++
		fail := s.bad.Load()
		switch s.state.Load() {
		case stateAdmitted:
			o.admitted++
			got := bits.OnesCount32(s.onTime.Load() & s.group)
			want := bits.OnesCount32(s.group)
			o.deliveredPairs += got
			o.expectedPairs += want
			if float64(got) >= math.Ceil(atomicThreshold*float64(want)-1e-9) {
				o.atomic++
			}
			if got < want {
				fail = true
			}
		case stateRefused:
			o.refused++
		default:
			fail = true
		}
		if fail {
			o.failed++
		}
	}
	o.failed += r.unplaced
	o.subLatNS = make([][]float64, r.subs)
	for i := range r.members {
		for sub, lat := range r.members[i].lat {
			for _, v := range lat {
				o.subLatNS[sub] = append(o.subLatNS[sub], float64(v))
			}
		}
	}
	for _, lat := range o.subLatNS {
		slices.Sort(lat)
		o.latNS = append(o.latNS, lat...)
	}
	slices.Sort(o.latNS)
	return o
}

// tally is the cheap state read at every sub-window edge.
type tally struct {
	use        usage
	sentBytes  uint64
	deliveries uint64
}

// udpFabric is what the benchmark reads from the bare or traced UDP
// fabric.
type udpFabric interface {
	ag.Transport
	ag.WireStatser
	Stats() ag.UDPTransportStats
}

func takeTally(fabric udpFabric, r *recorder) tally {
	return tally{use: readUsage(), sentBytes: fabric.WireStats().SentBytes, deliveries: r.deliveries()}
}

// snapshot is the state read at the window's edges.
type snapshot struct {
	use        usage
	stats      ag.Stats
	udp        ag.UDPTransportStats
	deliveries uint64
	prom       promMetrics
}

func takeSnapshot(g rtGroup, fabric udpFabric, r *recorder, first bool) snapshot {
	var s snapshot
	// The scrape and the Stats calls are kept outside the CPU window:
	// before the usage reading at its start, after it at its end.
	if first {
		s.prom = scrape(g.debugAddr())
		s.stats = g.stats()
		s.udp = fabric.Stats()
		s.deliveries = r.deliveries()
		s.use = readUsage()
		return s
	}
	s.use = readUsage()
	s.deliveries = r.deliveries()
	s.stats = g.stats()
	s.udp = fabric.Stats()
	s.prom = scrape(g.debugAddr())
	return s
}

// rtRun is everything one run of a real-time workload measured.
type rtRun struct {
	setup      []float64 // seconds per set-up
	before     snapshot
	after      snapshot
	tallies    []tally // at every sub-window edge
	out        outcome
	gen        genStats
	rec        *recorder
	adaptation []adaptSample
	maxRSS     int64
}

type adaptSample struct {
	sum, min float64
	err      int
}

// A run's first group is built setupWarm times untimed, so the
// process's heap has grown to size, then setupReps times timed: setup_s
// is their median, and the last build is the one measured. Later
// groups of the run are built once, untimed.
const (
	setupWarm = 2
	setupReps = 41
)

// measureRealtime runs the workload's groups one after another, the
// untraced measurement of one invocation.
func measureRealtime(ctx context.Context, w *rtWorkload, seed uint64, window time.Duration) (rtRuns, error) {
	n := max(1, w.groups)
	var runs rtRuns
	for i := 0; i < n; i++ {
		run, err := runRealtime(ctx, w, seed, window/time.Duration(n), nil, i == 0)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// runRealtime sets the workload up, timing the set-ups when timed is
// set, then drives the last group for warmup + window + drain with the
// open-loop generator.
func runRealtime(ctx context.Context, w *rtWorkload, seed uint64, window time.Duration, tr *tracer, timed bool) (*rtRun, error) {
	run := &rtRun{}
	rec := newRecorder(w, window)
	rec.tracer = tr
	if tr != nil {
		tr.rec = rec
	}
	var g rtGroup
	var wire udpFabric
	warm, reps := setupWarm, setupReps
	if !timed {
		warm, reps = 0, 1
	}
	for i := -warm; i < reps; i++ {
		last := i == reps-1
		var deliver ag.DeliverFunc
		if last {
			deliver = rec.deliver
		}
		// Each set-up starts from a collected heap, so a collection
		// left over from the previous one does not land in its time.
		runtime.GC()
		start := time.Now()
		fabric, err := newFabric(w, tr, last)
		if err != nil {
			return nil, err
		}
		grp, err := w.build(ctx, fabric, deliver, "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		if i >= 0 && timed {
			run.setup = append(run.setup, time.Since(start).Seconds())
		}
		if last {
			g, wire = grp, fabric
			break
		}
		if err := grp.close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
	}
	defer g.close()

	corp := newCorpus(seed)
	off := int(seed % uint64(w.members))
	for k := range rec.slots {
		m, t, grp := g.route(k + off)
		rec.slots[k].member, rec.slots[k].topic, rec.slots[k].group = int32(m), int32(t), grp
	}

	genCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	rec.epoch = time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sleepUntil(genCtx, rec.epoch.Add(w.warmup))
		if tr != nil {
			tr.window.Store(true)
		}
		run.before = takeSnapshot(g, wire, rec, true)
		start := rec.epoch.Add(w.warmup)
		run.tallies = append(run.tallies, takeTally(wire, rec))
		for i := 1; i <= rec.subs; i++ {
			sleepUntil(genCtx, start.Add(window*time.Duration(i)/time.Duration(rec.subs)))
			run.tallies = append(run.tallies, takeTally(wire, rec))
			if tr != nil && i < rec.subs {
				sum, min, err := g.adaptation()
				run.adaptation = append(run.adaptation, adaptSample{sum, min, err})
			}
		}
		run.after = takeSnapshot(g, wire, rec, false)
		if tr != nil {
			tr.window.Store(false)
		}
	}()
	run.gen = rec.generate(genCtx, g, corp)
	sleepUntil(genCtx, rec.epoch.Add(time.Duration(rec.deadline)))
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := g.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	rec.checkRefusals()
	run.out = rec.outcome()
	run.rec = rec
	run.maxRSS = readUsage().maxRSS
	return run, nil
}

// newFabric builds the loopback UDP fabric the workload runs on,
// wrapped for tracing when tr is set and the group is the measured one.
func newFabric(w *rtWorkload, tr *tracer, measured bool) (udpFabric, error) {
	opts := []ag.TransportOption{ag.WithTransportSeed(1)}
	if w.loss > 0 {
		opts = append(opts, ag.WithLoss(w.loss))
	}
	if w.compression != "" {
		opts = append(opts, ag.WithCompression(w.compression))
	}
	udp, err := ag.NewUDPTransport(opts...)
	if err != nil {
		return nil, fmt.Errorf("udp fabric: %w", err)
	}
	if tr != nil && measured {
		return newTracedFabric(udp, tr), nil
	}
	return udp, nil
}

func sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}

// rtRuns are the groups of one invocation, in the order they ran.
type rtRuns []*rtRun

// subMedian is the median over every group's sub-windows of f(run, i):
// a burst of noise from outside the process, or one group's unlucky
// timing pattern, moves a minority of them, not the median.
func (runs rtRuns) subMedian(f func(run *rtRun, i int) float64) float64 {
	var vals []float64
	for _, run := range runs {
		for i := 0; i+1 < len(run.tallies); i++ {
			vals = append(vals, f(run, i))
		}
	}
	return median(vals)
}

// sum adds f over the groups.
func (runs rtRuns) sum(f func(run *rtRun) float64) float64 {
	total := 0.0
	for _, run := range runs {
		total += f(run)
	}
	return total
}

// counts sums the groups' window counts; the latency samples stay with
// each group's outcome.
func (runs rtRuns) counts() outcome {
	var o outcome
	for _, run := range runs {
		r := run.out
		o.offered += r.offered
		o.admitted += r.admitted
		o.refused += r.refused
		o.failed += r.failed
		o.deliveredPairs += r.deliveredPairs
		o.expectedPairs += r.expectedPairs
		o.atomic += r.atomic
	}
	return o
}

// latencySamples counts the window's (event, member) latency samples.
func (runs rtRuns) latencySamples() int {
	return int(runs.sum(func(run *rtRun) float64 { return float64(len(run.out.latNS)) }))
}

// genLagMS is the q-quantile of the generator's lag over every group.
func (runs rtRuns) genLagMS(q float64) float64 {
	var g genStats
	for _, run := range runs {
		g.lagNS = append(g.lagNS, run.gen.lagNS...)
	}
	return genLagMS(g, q)
}

// endToEnd computes the ten end-to-end metrics of a real-time
// invocation.
func (runs rtRuns) endToEnd() metricSet {
	o := runs.counts()
	ms := metricSet{}
	ms.add("setup_s", median(runs[0].setup))
	ms.add("deliver_p50_ms", runs.subMedian(func(run *rtRun, i int) float64 { return quantile(run.out.subLatNS[i], 0.50) / 1e6 }))
	ms.add("deliver_p99_ms", runs.subMedian(func(run *rtRun, i int) float64 { return quantile(run.out.subLatNS[i], 0.99) / 1e6 }))
	ms.add("delivery_ratio", ratio(float64(o.deliveredPairs), float64(o.expectedPairs)))
	ms.add("atomic_pct", 100*ratio(float64(o.atomic), float64(o.admitted)))
	ms.add("admit_ratio", ratio(float64(o.admitted), float64(o.offered)))
	ms.add("cpu_us_per_delivery", runs.subMedian(func(run *rtRun, i int) float64 {
		t0, t1 := run.tallies[i], run.tallies[i+1]
		return ratio(float64((t1.use.cpu - t0.use.cpu).Microseconds()), float64(t1.deliveries-t0.deliveries))
	}))
	ms.add("wire_bytes_per_delivery", runs.subMedian(func(run *rtRun, i int) float64 {
		t0, t1 := run.tallies[i], run.tallies[i+1]
		return ratio(float64(t1.sentBytes-t0.sentBytes), float64(t1.deliveries-t0.deliveries))
	}))
	ms.add("max_rss_mb", float64(runs[len(runs)-1].maxRSS)/(1<<20))
	ticks := runs.sum(func(run *rtRun) float64 {
		return run.after.prom.get("gossip_tick_nanos_count") - run.before.prom.get("gossip_tick_nanos_count")
	})
	windowS := runs.sum(func(run *rtRun) float64 { return run.after.use.wall.Sub(run.before.use.wall).Seconds() })
	ms.add("sim_node_rounds_per_s", ratio(ticks, windowS))
	return ms
}
