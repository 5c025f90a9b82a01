package main

import (
	"cmp"
	"encoding/json"
	"net"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	ag "adaptivegossip"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
	"adaptivegossip/internal/transport"
)

// Sampling of the traced run. Every call is timed into the layer
// statistics; only a sample is kept as span records, and only a sample
// of events carries the handoff correlation.
const (
	handoffSample = 8    // events with seq % handoffSample == 0 are correlated
	spanSample    = 16   // rounds / seqs with value % spanSample == 0 are kept as spans
	spanLimit     = 1e5  // span records kept in memory
	captureLimit  = 1200 // messages captured at the handler for the ladder
	captureEvery  = 32   // capture one in this many handled messages
	sendRing      = 4096 // send stamps remembered per member
)

// spanRec is one recorded span. Spans of one event share its seq in
// Key; Parent names the span that caused this one (the send a transit
// span ends, the Publish call an origin delivery runs inside).
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Member int    `json:"member"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s spanRec) dur() int64 { return s.End - s.Start }

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by its children (the union of their
// intervals, clipped to the parent).
func selfTimes(spans []spanRec) map[uint64]int64 {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		// Sweep the children in start order, merging overlaps into the
		// run [runLo, runHi) and adding each finished run to covered.
		covered, runLo, runHi := int64(0), s.Start, s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], s.Start), min(iv[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > runHi {
				covered += runHi - runLo
				runLo = lo
			}
			runHi = max(runHi, hi)
		}
		out[s.ID] = s.dur() - covered - (runHi - runLo)
	}
	return out
}

// msgKey correlates a sent message with its receptions: the sender's
// round message is the same value for every fanout target.
type msgKey struct {
	from  gossip.NodeID
	group string
	kind  gossip.MessageKind
	round uint64
}

type sendStamp struct {
	start int64
	span  uint64
}

// tracer collects spans and per-layer timings for one traced run, from
// outside the program: around the facade's Publish, around every
// Endpoint call the runtime makes, and in the handler it installs.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	window atomic.Bool // inside the measured window
	rec    *recorder

	epMu sync.RWMutex
	eps  map[gossip.NodeID]*tracedEndpoint

	spanMu   sync.Mutex
	spans    []spanRec
	overflow int

	capMu    sync.Mutex
	captured []*gossip.Message
	handled  atomic.Uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), eps: map[gossip.NodeID]*tracedEndpoint{}}
}

func (t *tracer) now() int64    { return time.Since(t.epoch).Nanoseconds() }
func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) keep(s spanRec) {
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	if len(t.spans) >= spanLimit {
		t.overflow++
		return
	}
	t.spans = append(t.spans, s)
}

func (t *tracer) endpoint(id gossip.NodeID) *tracedEndpoint {
	t.epMu.RLock()
	defer t.epMu.RUnlock()
	return t.eps[id]
}

// published records the span around one Publish call.
func (t *tracer) published(seq int, id uint64, member int, start, end time.Time) {
	if seq%spanSample == 0 {
		t.keep(spanRec{ID: id, Name: "facade.publish", Member: member, Key: seqKey(seq),
			Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	}
}

// delivered runs inside the recorder's delivery callback: it closes the
// handoff interval opened when a message carrying the event reached the
// member's handler, and records the origin's own delivery as a child
// of its Publish span.
func (t *tracer) delivered(m, seq int, s *slot, at time.Time) {
	now := at.Sub(t.epoch).Nanoseconds()
	if int(s.member) == m {
		if seq%spanSample == 0 {
			t.keep(spanRec{ID: t.newID(), Parent: s.pubSpan.Load(), Name: "app.deliver",
				Member: m, Key: seqKey(seq), Start: now, End: t.now()})
		}
		return
	}
	if seq%handoffSample != 0 {
		return
	}
	ep := t.endpoint(t.rec.memberName(m))
	if ep == nil {
		return
	}
	ep.hmu.Lock()
	st, ok := ep.handoff[uint64(seq)]
	delete(ep.handoff, uint64(seq))
	ep.hmu.Unlock()
	if !ok || !t.window.Load() {
		return
	}
	ep.handoffNS = append(ep.handoffNS, now-st.start)
	if seq%spanSample == 0 {
		t.keep(spanRec{ID: t.newID(), Parent: st.span, Name: "runtime.handoff", Member: m,
			Key: seqKey(seq), Start: st.start, End: now})
	}
}

func seqKey(seq int) string { return "seq/" + strconv.Itoa(seq) }

// capture keeps a copy of a sample of handled messages for the ladder.
func (t *tracer) capture(msg *gossip.Message) {
	if !t.window.Load() || t.handled.Add(1)%captureEvery != 0 {
		return
	}
	t.capMu.Lock()
	defer t.capMu.Unlock()
	if len(t.captured) < captureLimit {
		t.captured = append(t.captured, msg.Clone())
	}
}

// writeSpans dumps the kept spans as JSON.
func (t *tracer) writeSpans(path string) (int, error) {
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	doc := struct {
		Epoch    time.Time `json:"epoch"`
		Overflow int       `json:"overflow"`
		Spans    []spanRec `json:"spans"`
	}{t.epoch, t.overflow, t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return 0, err
	}
	return len(t.spans), os.WriteFile(path, b, 0o644)
}

// tracedFabric wraps the UDP fabric so every endpoint it hands out is
// a tracedEndpoint. It forwards every optional interface the facades
// look for on the bare fabric.
type tracedFabric struct {
	inner *ag.UDPTransport
	t     *tracer
}

func newTracedFabric(inner *ag.UDPTransport, t *tracer) *tracedFabric {
	return &tracedFabric{inner: inner, t: t}
}

func (f *tracedFabric) Endpoint(id ag.NodeID) (ag.Endpoint, error) {
	ep, err := f.inner.Endpoint(id)
	if err != nil {
		return nil, err
	}
	te := &tracedEndpoint{
		inner:   ep.(*transport.UDPTransport),
		t:       f.t,
		id:      id,
		sends:   map[msgKey]sendStamp{},
		ring:    make([]msgKey, 0, sendRing),
		handoff: map[uint64]sendStamp{},
	}
	f.t.epMu.Lock()
	f.t.eps[id] = te
	f.t.epMu.Unlock()
	return te, nil
}

func (f *tracedFabric) Close() error                             { return f.inner.Close() }
func (f *tracedFabric) WireStats() ag.WireStats                  { return f.inner.WireStats() }
func (f *tracedFabric) Register(id ag.NodeID, addr string) error { return f.inner.Register(id, addr) }
func (f *tracedFabric) Stats() ag.UDPTransportStats              { return f.inner.Stats() }
func (f *tracedFabric) Addr(id ag.NodeID) string                 { return f.inner.Addr(id) }

// tracedEndpoint times every call the runtime makes into one member's
// UDP endpoint. Fields are grouped by the goroutine that writes them.
type tracedEndpoint struct {
	inner *transport.UDPTransport
	t     *tracer
	id    gossip.NodeID

	// Written by the member's node loop (its only sender).
	sendNS      durations
	sendCalls   int
	msgsSent    int
	controlSent int

	// Send stamps, read by every receiver's handler.
	mu    sync.Mutex
	sends map[msgKey]sendStamp
	ring  []msgKey
	pos   int

	// Written by the endpoint's dispatch goroutine (the handler).
	transitNS durations

	// Handoff stamps: set by the handler, taken by the delivery
	// callback on the member's node loop.
	hmu       sync.Mutex
	handoff   map[uint64]sendStamp
	handoffNS durations // node loop only
}

func (e *tracedEndpoint) LocalID() gossip.NodeID { return e.inner.LocalID() }
func (e *tracedEndpoint) Close() error           { return e.inner.Close() }
func (e *tracedEndpoint) Start() error           { return e.inner.Start() }
func (e *tracedEndpoint) ScratchSafe()           {}
func (e *tracedEndpoint) Stats() transport.UDPStats {
	return e.inner.Stats()
}
func (e *tracedEndpoint) SetLinks(links *observe.PeerTable) { e.inner.SetLinks(links) }
func (e *tracedEndpoint) Addr() *net.UDPAddr                { return e.inner.Addr() }
func (e *tracedEndpoint) Register(id gossip.NodeID, addr string) error {
	return e.inner.Register(id, addr)
}

// stamp remembers when msg's send began, before any target can receive
// it, so handlers can close the transit interval.
func (e *tracedEndpoint) stamp(msg *gossip.Message, start int64) uint64 {
	var span uint64
	if msg.Round%spanSample == 0 {
		span = e.t.newID()
	}
	k := msgKey{from: msg.From, group: msg.Group, kind: msg.Kind, round: msg.Round}
	e.mu.Lock()
	if _, ok := e.sends[k]; !ok {
		if len(e.ring) < sendRing {
			e.ring = append(e.ring, k)
		} else {
			delete(e.sends, e.ring[e.pos])
			e.ring[e.pos] = k
			e.pos = (e.pos + 1) % sendRing
		}
	}
	e.sends[k] = sendStamp{start: start, span: span}
	e.mu.Unlock()
	return span
}

func (e *tracedEndpoint) lookup(msg *gossip.Message) (sendStamp, bool) {
	k := msgKey{from: msg.From, group: msg.Group, kind: msg.Kind, round: msg.Round}
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.sends[k]
	return st, ok
}

func (e *tracedEndpoint) sent(msg *gossip.Message, targets int, span uint64, start int64) {
	end := e.t.now()
	if span != 0 {
		e.t.keep(spanRec{ID: span, Name: "transport.send", Member: e.member(),
			Key: msg.Kind.String(), Start: start, End: end})
	}
	if !e.t.window.Load() {
		return
	}
	e.sendNS = append(e.sendNS, end-start)
	e.sendCalls++
	e.msgsSent += targets
	if msg.Kind != gossip.KindGossip {
		e.controlSent += targets
	}
}

func (e *tracedEndpoint) member() int { return e.t.rec.names[e.id] }

// Send forwards one message, timing encode + compress + write.
func (e *tracedEndpoint) Send(to gossip.NodeID, msg *gossip.Message) error {
	start := e.t.now()
	span := e.stamp(msg, start)
	err := e.inner.Send(to, msg)
	e.sent(msg, 1, span, start)
	return err
}

// SendMany forwards one fanout, timing encode + compress + writes.
func (e *tracedEndpoint) SendMany(targets []gossip.NodeID, msg *gossip.Message) (int, error) {
	start := e.t.now()
	span := e.stamp(msg, start)
	n, err := e.inner.SendMany(targets, msg)
	e.sent(msg, len(targets), span, start)
	return n, err
}

// SetHandler installs a handler that closes the transit interval,
// opens the handoff interval of sampled events, then hands the message
// to the runtime's handler.
func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	e.inner.SetHandler(func(msg *gossip.Message) {
		now := e.t.now()
		var cause uint64
		if src := e.t.endpoint(msg.From); src != nil {
			if st, ok := src.lookup(msg); ok {
				cause = st.span
				if e.t.window.Load() {
					e.transitNS = append(e.transitNS, now-st.start)
				}
				if st.span != 0 {
					cause = e.t.newID()
					e.t.keep(spanRec{ID: cause, Parent: st.span, Name: "transport.transit",
						Member: e.member(), Key: msg.Kind.String(), Start: st.start, End: now})
				}
			}
		}
		e.stampHandoff(msg, now, cause)
		e.t.capture(msg)
		h(msg)
	})
}

// stampHandoff opens the handoff interval for every sampled event the
// message carries that the member has not delivered yet.
func (e *tracedEndpoint) stampHandoff(msg *gossip.Message, now int64, cause uint64) {
	rec := e.t.rec
	bit := uint32(1) << e.member()
	locked := false
	for i := range msg.Events {
		seq, ok := payloadSeq(msg.Events[i].Payload)
		if !ok || seq%handoffSample != 0 || seq >= uint64(len(rec.slots)) {
			continue
		}
		if rec.slots[seq].delivered.Load()&bit != 0 {
			continue
		}
		if !locked {
			e.hmu.Lock()
			locked = true
		}
		if _, dup := e.handoff[seq]; !dup {
			e.handoff[seq] = sendStamp{start: now, span: cause}
		}
	}
	if locked {
		e.hmu.Unlock()
	}
}

var (
	_ ag.Transport          = (*tracedFabric)(nil)
	_ ag.WireStatser        = (*tracedFabric)(nil)
	_ ag.PeerRegistrar      = (*tracedFabric)(nil)
	_ ag.Endpoint           = (*tracedEndpoint)(nil)
	_ transport.ManySender  = (*tracedEndpoint)(nil)
	_ transport.ScratchSafe = (*tracedEndpoint)(nil)
)
