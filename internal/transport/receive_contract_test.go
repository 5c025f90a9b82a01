package transport

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/recovery"
)

// Contracts of the UDP datagram → Receive path: a datagram decoded into
// the endpoint's reused scratch reaches core.AdaptiveNode.Receive
// without allocating for duplicate events and with one payload copy per
// newly delivered event, and nothing the node keeps aliases the read
// buffer or the decompression scratch after the handler returns.

// receivePath is one UDP endpoint whose handler calls a core node's
// Receive synchronously, as the runtime's hand-off does.
type receivePath struct {
	tr        *UDPTransport
	node      *core.AdaptiveNode
	delivered []gossip.Event
	outs      []gossip.Outgoing
}

func newReceivePath(t *testing.T, recoveryOn bool, opts ...UDPOption) *receivePath {
	t.Helper()
	p := &receivePath{tr: newUDP(t, "r", opts...)}
	node, err := core.NewAdaptiveNode(core.NodeConfig{
		ID:       "r",
		Gossip:   gossip.Params{Fanout: 4, Period: 10 * time.Millisecond, MaxEvents: 120, MaxAge: 10},
		Recovery: recovery.Params{Enabled: recoveryOn},
		Peers:    membership.NewRegistry("r", "s"),
		RNG:      rand.New(rand.NewPCG(1, 2)),
		Deliver:  func(ev gossip.Event) { p.delivered = append(p.delivered, ev) },
		Start:    time.Unix(0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.node = node
	now := time.Unix(1, 0)
	p.tr.SetHandler(func(m *gossip.Message) { p.outs = node.Receive(m, now) })
	return p
}

// dispatch copies data into a pooled read buffer and runs the
// endpoint's dispatch on it, returning the buffer it used.
func (p *receivePath) dispatch(data []byte) []byte {
	bp := recvBufPool.Get().(*[]byte)
	n := copy(*bp, data)
	p.tr.dispatch(recvPacket{buf: bp, n: n})
	return (*bp)[:n]
}

// roundMessage is a plain round message: four origins, 48 events with
// 64-byte payloads whose bytes depend on the sequence numbers.
func roundMessage(base uint64) *gossip.Message {
	m := &gossip.Message{From: "s", Round: base}
	for i := 0; i < 48; i++ {
		seq := base + uint64(i/4)
		m.Events = append(m.Events, gossip.Event{
			ID:      gossip.EventID{Origin: gossip.NodeID(fmt.Sprintf("o%d", i%4)), Seq: seq},
			Age:     i % 5,
			Payload: bytes.Repeat([]byte{byte(seq), byte(i)}, 32),
		})
	}
	return m
}

// rebase rewrites m's sequence numbers in place to start at base.
func rebase(m *gossip.Message, base uint64) {
	for i := range m.Events {
		m.Events[i].ID.Seq = base + uint64(i/4)
	}
}

func TestUDPDispatchReceiveAllocFree(t *testing.T) {
	p := newReceivePath(t, false)
	c := DefaultCodec()
	msg := roundMessage(0)
	buf := make([]byte, 0, 64<<10)
	encode := func(base uint64) []byte {
		rebase(msg, base)
		out, err := c.AppendEncode(buf[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
		return out
	}
	// Warm until eventIds is full, so the steady state is measured.
	base := uint64(0)
	for ; base < 2000; base += 12 {
		p.dispatch(encode(base))
	}
	// Room for every delivery below, so the callback does not allocate.
	p.delivered = make([]gossip.Event, 0, 128*len(msg.Events))

	data := encode(base)
	p.dispatch(data)
	if len(p.delivered) != len(msg.Events) {
		t.Fatalf("first copy delivered %d of %d events", len(p.delivered), len(msg.Events))
	}
	dups := testing.AllocsPerRun(100, func() { p.dispatch(data) })
	if dups != 0 {
		t.Fatalf("a datagram of duplicate events allocates %v times, want 0", dups)
	}
	if len(p.delivered) != len(msg.Events) {
		t.Fatalf("duplicates delivered: %d deliveries", len(p.delivered))
	}

	fresh := testing.AllocsPerRun(100, func() {
		base += 12
		p.dispatch(encode(base))
	})
	t.Logf("allocations per datagram: %v with every event a duplicate, %v with %d new events",
		dups, fresh, len(msg.Events))
	if fresh > float64(len(msg.Events)) {
		t.Fatalf("a datagram of %d new events allocates %v times, want at most one per event",
			len(msg.Events), fresh)
	}
	if want := (1 + 101) * len(msg.Events); len(p.delivered) != want {
		t.Fatalf("delivered %d events, want %d", len(p.delivered), want)
	}
}

// TestUDPDispatchKeptPayloadsOutliveReadBuffer overwrites the read
// buffer (and, for compressed frames, the decompression scratch) after
// the handler returns, then checks every payload the node kept:
// delivered, buffered and retained by the recovery store.
func TestUDPDispatchKeptPayloadsOutliveReadBuffer(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []UDPOption
	}{
		{"stored", nil},
		{"flate", []UDPOption{WithUDPCompression(NewFlateCompressor())}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newReceivePath(t, true, tc.opts...)
			c := p.tr.codec
			msg := roundMessage(100)
			want := msg.Clone()
			data, err := c.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			read := p.dispatch(data)
			for i := range read {
				read[i] = 0xEE
			}
			// A second, different datagram reuses the scratch message and
			// the decompression buffer.
			other, err := c.Encode(roundMessage(900))
			if err != nil {
				t.Fatal(err)
			}
			p.dispatch(other)

			check := func(where string, evs []gossip.Event) {
				t.Helper()
				wantPayload := map[gossip.EventID][]byte{}
				for _, ev := range want.Events {
					wantPayload[ev.ID] = ev.Payload
				}
				seen := 0
				for _, ev := range evs {
					w, ok := wantPayload[ev.ID]
					if !ok {
						continue
					}
					seen++
					if !bytes.Equal(ev.Payload, w) {
						t.Fatalf("%s payload of %s changed: %x", where, ev.ID, ev.Payload)
					}
				}
				if seen != len(want.Events) {
					t.Fatalf("%s holds %d of the %d events", where, seen, len(want.Events))
				}
			}
			check("delivered", p.delivered)

			outs := p.node.Tick(time.Unix(2, 0))
			if len(outs) == 0 {
				t.Fatal("tick sent nothing")
			}
			check("buffered", outs[0].Msg.Events)

			req := &gossip.Message{Kind: gossip.KindRecoveryRequest, From: "s"}
			for _, ev := range want.Events {
				req.Request = append(req.Request, ev.ID)
			}
			reqData, err := c.Encode(req)
			if err != nil {
				t.Fatal(err)
			}
			p.dispatch(reqData)
			if len(p.outs) != 1 || p.outs[0].Msg.Kind != gossip.KindRecoveryResponse {
				t.Fatalf("recovery request answered with %+v", p.outs)
			}
			check("recovery-stored", p.outs[0].Msg.Events)
		})
	}
}
