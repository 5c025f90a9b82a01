package transport

import (
	"bytes"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
)

func newUDP(t *testing.T, id gossip.NodeID, opts ...UDPOption) *UDPTransport {
	t.Helper()
	tr, err := NewUDPTransport(id, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatalf("NewUDPTransport(%s): %v", id, err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestUDPRoundTrip(t *testing.T) {
	a := newUDP(t, "a")
	b := newUDP(t, "b")
	got := make(chan *gossip.Message, 1)
	b.SetHandler(func(m *gossip.Message) { got <- m.Clone() })
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Register("b", b.Addr().String()); err != nil {
		t.Fatal(err)
	}
	msg := sampleMessage()
	if err := a.Send("b", msg); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if !msgEqual(msg, m) {
			t.Fatalf("mismatch over UDP:\n in %+v\nout %+v", msg, m)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("UDP delivery timed out")
	}
	st := a.Stats()
	if st.Sent != 1 || st.SentBytes == 0 {
		t.Fatalf("sender stats %+v", st)
	}
	if st := b.Stats(); st.Received != 1 {
		t.Fatalf("receiver stats %+v", st)
	}
}

func TestUDPSplitLargeMessage(t *testing.T) {
	a := newUDP(t, "a", WithMaxDatagram(2048))
	b := newUDP(t, "b")
	got := make(chan *gossip.Message, 16)
	b.SetHandler(func(m *gossip.Message) { got <- m.Clone() })
	b.Start()
	a.Start()
	a.Register("b", b.Addr().String())

	msg := &gossip.Message{From: "a", Adaptive: true, MinBuff: 90}
	for i := 0; i < 50; i++ {
		msg.Events = append(msg.Events, gossip.Event{
			ID:      gossip.EventID{Origin: "a", Seq: uint64(i)},
			Age:     1,
			Payload: bytes.Repeat([]byte{byte(i)}, 200),
		})
	}
	if err := a.Send("b", msg); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(3 * time.Second)
	var events int
	var chunks int
	for events < 50 {
		select {
		case m := <-got:
			chunks++
			events += len(m.Events)
			if m.MinBuff != 90 || !m.Adaptive {
				t.Fatal("chunk lost adaptation header")
			}
		case <-deadline:
			t.Fatalf("received %d/50 events in %d chunks before timeout", events, chunks)
		}
	}
	if chunks < 2 {
		t.Fatalf("expected multiple datagrams, got %d", chunks)
	}
	if a.Stats().SplitChunks == 0 {
		t.Fatal("SplitChunks not counted")
	}
}

func TestUDPUnknownPeer(t *testing.T) {
	a := newUDP(t, "a")
	if err := a.Send("ghost", &gossip.Message{From: "a"}); err == nil {
		t.Fatal("send to unregistered peer succeeded")
	}
	if a.Stats().SendErrors != 1 {
		t.Fatalf("stats %+v", a.Stats())
	}
}

func TestUDPGarbageDatagramsCounted(t *testing.T) {
	b := newUDP(t, "b")
	b.SetHandler(func(*gossip.Message) {})
	b.Start()
	a := newUDP(t, "a")
	a.Start()
	// Send raw garbage straight at b's socket.
	conn := a.conn
	addr := b.Addr()
	if _, err := conn.WriteToUDP([]byte("not a gossip message"), addr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if b.Stats().DecodeErrors >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("decode errors not counted: %+v", b.Stats())
}

func TestUDPValidation(t *testing.T) {
	if _, err := NewUDPTransport("", "127.0.0.1:0"); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := NewUDPTransport("a", "not-an-addr:xyz"); err == nil {
		t.Fatal("bad address accepted")
	}
	if _, err := NewUDPTransport("a", "127.0.0.1:0", WithMaxDatagram(10)); err == nil {
		t.Fatal("tiny datagram bound accepted")
	}
}

func TestUDPDoubleStartAndClose(t *testing.T) {
	a := newUDP(t, "a")
	a.SetHandler(func(*gossip.Message) {})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}

func TestUDPNoHandlerCounted(t *testing.T) {
	b := newUDP(t, "b")
	b.Start()
	a := newUDP(t, "a")
	a.Start()
	a.Register("b", b.Addr().String())
	a.Send("b", &gossip.Message{From: "a"})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if b.Stats().NoHandler >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("NoHandler not counted: %+v", b.Stats())
}
