package pubsub

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/runtime"
	"adaptivegossip/internal/transport"
)

// newHandoffPeer builds a peer's runner over a tagTransport and returns
// the handler the runner installed, so a test can play the transport's
// dispatch goroutine. With start set the runner is started and the peer
// subscribed to topic "t"; deliveries are counted in the returned
// counter.
func newHandoffPeer(t *testing.T, start bool) (*runtime.Runner, transport.Handler, *atomic.Int64) {
	t.Helper()
	var delivered atomic.Int64
	tr := &tagTransport{id: "x", sent: map[string]int{}}
	r, err := runtime.NewRunner(runtime.Config{Transport: tr, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if start {
		r.Start()
		cfg := PeerConfig{Runner: r, BufferBudget: 64, Node: nodeConfig("x"),
			Deliver: func(Topic, gossip.Event) { delivered.Add(1) }}
		cfg.Node.Adaptive = false
		p, err := NewPeer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Subscribe("t", membership.NewRegistry("x", "s")); err != nil {
			t.Fatal(err)
		}
	}
	return r, tr.handler(), &delivered
}

func topicEvent(seq uint64) *gossip.Message {
	return &gossip.Message{From: "s", Group: "t",
		Events: []gossip.Event{{ID: gossip.EventID{Origin: "s", Seq: seq}}}}
}

// TestRunnerHandoffReturnsAfterProcessing: the handler returns only
// once the loop has routed the topic's message to its group and
// delivered it.
func TestRunnerHandoffReturnsAfterProcessing(t *testing.T) {
	r, h, delivered := newHandoffPeer(t, true)
	defer r.Stop()
	for seq := uint64(0); seq < 100; seq++ {
		h(topicEvent(seq))
		if got := delivered.Load(); got != int64(seq)+1 {
			t.Fatalf("handler returned before the loop processed message %d (%d delivered)", seq, got)
		}
	}
}

// TestRunnerStopWithHandoffsInFlight: with or without Start, Stop does
// not deadlock against handlers blocked in the hand-off of topic
// messages, and every handler returns afterwards.
func TestRunnerStopWithHandoffsInFlight(t *testing.T) {
	for _, start := range []bool{false, true} {
		r, h, _ := newHandoffPeer(t, start)
		var wg sync.WaitGroup
		var seq atomic.Uint64
		quit := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-quit:
						return
					default:
					}
					h(topicEvent(seq.Add(1)))
				}
			}()
		}
		time.Sleep(5 * time.Millisecond)
		stopped := make(chan struct{})
		go func() {
			r.Stop()
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(5 * time.Second):
			t.Fatalf("start=%v: Stop deadlocked with hand-offs in flight", start)
		}
		close(quit)
		returned := make(chan struct{})
		go func() {
			wg.Wait()
			close(returned)
		}()
		select {
		case <-returned:
		case <-time.After(5 * time.Second):
			t.Fatalf("start=%v: a handler stayed blocked after Stop", start)
		}
	}
}
