package gossip

import (
	"math/rand/v2"
	"testing"
	"time"
)

// Wire input must never panic a node. These tests replay two hostile
// sequences that used to end in Node.store's duplicate-add panic, and
// pin the copy-on-keep rule for borrowed messages.

func newHostileTestNode(t *testing.T, id NodeID, p Params, opts ...Option) *Node {
	t.Helper()
	n, err := NewNode(id, p, staticPeers{id, "o"}, rand.New(rand.NewPCG(7, 7)), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestReceiveEventIDFloodKeepsBufferedEventDelivered: one message of
// MaxEventIDs fresh ids pushes a still-buffered id out of eventIds. The
// next ordinary copy of that event must count as a duplicate, not be
// delivered a second time (which used to panic in Node.store).
func TestReceiveEventIDFloodKeepsBufferedEventDelivered(t *testing.T) {
	p := Params{Fanout: 1, Period: time.Second, MaxEvents: 4, MaxEventIDs: 4, MaxAge: 50}
	delivered := map[EventID]int{}
	n := newHostileTestNode(t, "r", p, WithDeliver(func(e Event) { delivered[e.ID]++ }))
	a := Event{ID: EventID{Origin: "o", Seq: 1}, Age: 1, Payload: []byte("a")}
	n.Receive(&Message{From: "o", Events: []Event{a}})

	flood := &Message{From: "x"}
	for i := uint64(0); i < uint64(p.MaxEventIDs); i++ {
		flood.Events = append(flood.Events, Event{ID: EventID{Origin: "x", Seq: i}, Age: 9})
	}
	n.Receive(flood)
	if n.Seen(a.ID) {
		t.Fatal("setup: the flood did not push the buffered id out of eventIds")
	}
	if !n.buf.Contains(a.ID) {
		t.Fatal("setup: the buffered event was evicted by the flood")
	}

	n.Receive(&Message{From: "o", Events: []Event{a}})
	if got := delivered[a.ID]; got != 1 {
		t.Fatalf("event %s delivered %d times, want 1", a.ID, got)
	}
	if d := n.Stats().Duplicates; d != 1 {
		t.Fatalf("duplicates = %d, want 1", d)
	}
}

// TestReceiveForgedOwnEventDropped: a spoofed event carrying the
// receiver's own id and next sequence number must be dropped as a
// duplicate; buffering it made the receiver's next Broadcast panic.
func TestReceiveForgedOwnEventDropped(t *testing.T) {
	var delivered []Event
	n := newHostileTestNode(t, "victim", testParams(), WithDeliver(func(e Event) {
		delivered = append(delivered, e)
	}))
	forged := Event{ID: EventID{Origin: "victim", Seq: 0}, Age: 1, Payload: []byte("forged")}
	n.Receive(&Message{From: "o", Events: []Event{forged}})
	if len(delivered) != 0 || n.BufferLen() != 0 {
		t.Fatalf("forged own event accepted: delivered %v, buffered %d", delivered, n.BufferLen())
	}
	if d := n.Stats().Duplicates; d != 1 {
		t.Fatalf("duplicates = %d, want 1", d)
	}

	ev := n.Broadcast([]byte("real"))
	if ev.ID != forged.ID || len(delivered) != 1 || string(delivered[0].Payload) != "real" {
		t.Fatalf("broadcast after forgery: event %v, delivered %v", ev.ID, delivered)
	}
	// A real copy of the node's own event coming back is a duplicate too.
	n.Receive(&Message{From: "o", Events: []Event{{ID: ev.ID, Age: 3, Payload: []byte("real")}}})
	if len(delivered) != 1 || n.Stats().Duplicates != 2 {
		t.Fatalf("echo of own event: delivered %d, duplicates %d", len(delivered), n.Stats().Duplicates)
	}
}

// TestReceiveBorrowedCopiesOnlyKeptPayloads: payloads of a borrowed
// message are copied once for delivered events (delivery and buffer
// share the copy); an owned message's payloads are kept as they are.
func TestReceiveBorrowedCopiesOnlyKeptPayloads(t *testing.T) {
	var delivered []Event
	n := newTestNode(t, "r", staticPeers{"r", "o"}, WithDeliver(func(e Event) {
		delivered = append(delivered, e)
	}))
	owned := []byte("owned")
	n.Receive(&Message{From: "o", Events: []Event{{ID: EventID{Origin: "o", Seq: 1}, Payload: owned}}})
	if &delivered[0].Payload[0] != &owned[0] {
		t.Fatal("owned payload was copied on receive")
	}

	wire := []byte("borrowed")
	msg := &Message{From: "o", Events: []Event{{ID: EventID{Origin: "o", Seq: 2}, Payload: wire}}}
	MarkBorrowed(msg)
	n.Receive(msg)
	copy(wire, "XXXXXXXX")
	if got := string(delivered[1].Payload); got != "borrowed" {
		t.Fatalf("delivered payload aliases the borrowed buffer: %q", got)
	}
	out := n.Tick()
	for _, ev := range out[0].Msg.Events {
		if ev.ID.Seq == 2 && string(ev.Payload) != "borrowed" {
			t.Fatalf("buffered payload aliases the borrowed buffer: %q", ev.Payload)
		}
		if ev.ID.Seq == 2 && &ev.Payload[0] != &delivered[1].Payload[0] {
			t.Fatal("delivered and buffered events do not share one copy")
		}
	}
}

func TestCopiesClearBorrowedMark(t *testing.T) {
	m := &Message{From: "o"}
	MarkBorrowed(m)
	if !IsBorrowed(m) {
		t.Fatal("MarkBorrowed did not mark")
	}
	if IsBorrowed(m.CopyForSend()) || IsBorrowed(m.Clone()) {
		t.Fatal("copies kept the borrowed mark")
	}
}
