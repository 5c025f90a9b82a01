package main

import (
	"net"
	"reflect"
	"testing"
	"time"

	ag "adaptivegossip"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/observe"
	"adaptivegossip/internal/transport"
)

func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40},  // overlaps 2: union is [10,40)
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent: [90,100)
		{ID: 5, Parent: 2, Start: 12, End: 14},  // grandchild: only 2's self time
		{ID: 6, Start: 200, End: 250},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 30 - 10, 2: 20 - 2, 3: 20, 4: 30, 5: 2, 6: 50}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func newTestTracer(members int) (*tracer, *recorder) {
	w := &rtWorkload{members: members, rate: 1000, warmup: time.Second, drain: time.Second}
	rec := newRecorder(w, time.Second)
	tr := newTracer()
	tr.rec, rec.tracer = rec, tr
	return tr, rec
}

func testEndpoint(tr *tracer, id gossip.NodeID) *tracedEndpoint {
	e := &tracedEndpoint{t: tr, id: id, sends: map[msgKey]sendStamp{}, handoff: map[uint64]sendStamp{}}
	tr.eps[id] = e
	return e
}

func TestTransitKeyMatchesOnlyTheSameRoundMessage(t *testing.T) {
	tr, _ := newTestTracer(2)
	e := testEndpoint(tr, "node-00")
	msg := &gossip.Message{From: "node-00", Group: "t1", Kind: gossip.KindGossip, Round: 32}
	if span := e.stamp(msg, 100); span == 0 {
		t.Fatal("round 32 is sampled and must open a span")
	}
	// A decoded copy at the receiver carries the same key fields.
	recv := &gossip.Message{From: "node-00", Group: "t1", Kind: gossip.KindGossip, Round: 32, Events: []gossip.Event{{}}}
	if st, ok := e.lookup(recv); !ok || st.start != 100 {
		t.Fatalf("lookup = %+v %v", st, ok)
	}
	for _, other := range []*gossip.Message{
		{From: "node-00", Group: "t1", Kind: gossip.KindGossip, Round: 33},
		{From: "node-00", Group: "t2", Kind: gossip.KindGossip, Round: 32},
		{From: "node-00", Group: "t1", Kind: gossip.KindPing, Round: 32},
		{From: "node-01", Group: "t1", Kind: gossip.KindGossip, Round: 32},
	} {
		if _, ok := e.lookup(other); ok {
			t.Errorf("%+v matched a different message's stamp", other)
		}
	}
	if span := e.stamp(&gossip.Message{From: "node-00", Round: 33}, 5); span != 0 {
		t.Error("round 33 is not sampled and must not open a span")
	}
}

func TestSendStampsAreBounded(t *testing.T) {
	tr, _ := newTestTracer(2)
	e := testEndpoint(tr, "node-00")
	for r := 0; r < sendRing+10; r++ {
		e.stamp(&gossip.Message{From: "node-00", Round: uint64(r)}, int64(r))
	}
	if len(e.sends) != sendRing {
		t.Fatalf("%d stamps kept, want %d", len(e.sends), sendRing)
	}
	if _, ok := e.lookup(&gossip.Message{From: "node-00", Round: 0}); ok {
		t.Error("the oldest stamp must be evicted")
	}
	if _, ok := e.lookup(&gossip.Message{From: "node-00", Round: sendRing + 9}); !ok {
		t.Error("the newest stamp must be kept")
	}
}

func TestHandoffStampsSampledUndeliveredEvents(t *testing.T) {
	tr, rec := newTestTracer(2)
	e := testEndpoint(tr, "node-01")
	c := newCorpus(1)
	ev := func(seq uint64) gossip.Event { return gossip.Event{Payload: c.payload(seq, 0, 32)} }
	rec.slots[2*handoffSample].delivered.Store(1 << 1) // already delivered at node-01
	msg := &gossip.Message{From: "node-00", Events: []gossip.Event{
		ev(handoffSample), ev(handoffSample + 1), ev(2 * handoffSample), {Payload: []byte("short")},
	}}
	e.stampHandoff(msg, 500, 0)
	e.stampHandoff(msg, 900, 0) // a later copy keeps the first stamp
	if len(e.handoff) != 1 || e.handoff[handoffSample].start != 500 {
		t.Fatalf("handoff stamps = %v, want only seq %d at 500", e.handoff, handoffSample)
	}
	// The delivery closes the interval and consumes the stamp.
	tr.window.Store(true)
	s := &rec.slots[handoffSample]
	tr.delivered(1, handoffSample, s, tr.epoch.Add(2500*time.Nanosecond))
	if len(e.handoffNS) != 1 || e.handoffNS[0] != 2000 {
		t.Fatalf("handoff durations = %v, want [2000]", e.handoffNS)
	}
	if len(e.handoff) != 0 {
		t.Fatal("delivery must consume the stamp")
	}
}

// The facades probe endpoints and fabrics for these optional
// interfaces; the traced wrapper must answer exactly as the bare UDP
// fabric does, or the traced run silently takes another code path.
var (
	fabricInterfaces = []reflect.Type{
		reflect.TypeFor[ag.WireStatser](),
		reflect.TypeFor[ag.PeerRegistrar](),
	}
	endpointInterfaces = []reflect.Type{
		reflect.TypeFor[interface{ Start() error }](),
		reflect.TypeFor[interface{ SetLinks(*observe.PeerTable) }](),
		reflect.TypeFor[interface{ Stats() transport.UDPStats }](),
		reflect.TypeFor[interface{ Addr() *net.UDPAddr }](),
		reflect.TypeFor[interface {
			Register(gossip.NodeID, string) error
		}](),
		reflect.TypeFor[transport.ManySender](),
		reflect.TypeFor[transport.ScratchSafe](),
	}
)

func TestTracedWrapperForwardsTheSameOptionalInterfaces(t *testing.T) {
	bare, err := ag.NewUDPTransport()
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	inner, err := ag.NewUDPTransport()
	if err != nil {
		t.Fatal(err)
	}
	traced := newTracedFabric(inner, newTracer())
	defer traced.Close()
	for _, it := range fabricInterfaces {
		b, w := reflect.TypeOf(bare).Implements(it), reflect.TypeOf(traced).Implements(it)
		if b != w {
			t.Errorf("fabric %v: bare %v, traced %v", it, b, w)
		}
	}
	bep, err := bare.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	tep, err := traced.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range endpointInterfaces {
		b, w := reflect.TypeOf(bep).Implements(it), reflect.TypeOf(tep).Implements(it)
		if !b {
			t.Errorf("bare endpoint no longer implements %v: update the list", it)
		}
		if b != w {
			t.Errorf("endpoint %v: bare %v, traced %v", it, b, w)
		}
	}
}

// exportedMethods lists a type's exported methods with their signatures.
func exportedMethods(t reflect.Type) map[string]string {
	out := map[string]string{}
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		out[m.Name] = m.Type.String()[len("func("+t.String()):]
	}
	return out
}

func TestTracedWrapperHasTheBareMethodSets(t *testing.T) {
	pairs := []struct{ bare, traced reflect.Type }{
		{reflect.TypeFor[*ag.UDPTransport](), reflect.TypeFor[*tracedFabric]()},
		{reflect.TypeFor[*transport.UDPTransport](), reflect.TypeFor[*tracedEndpoint]()},
	}
	for _, p := range pairs {
		if b, w := exportedMethods(p.bare), exportedMethods(p.traced); !reflect.DeepEqual(b, w) {
			t.Errorf("%v methods %v\n%v methods %v", p.bare, b, p.traced, w)
		}
	}
}
