package pubsub

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/transport"
)

// handlerTransport captures the handler a runner installs, so a test
// can play the transport's dispatch goroutine.
type handlerTransport struct {
	mu sync.Mutex
	h  transport.Handler
}

func (f *handlerTransport) LocalID() gossip.NodeID                    { return "x" }
func (f *handlerTransport) Send(gossip.NodeID, *gossip.Message) error { return nil }
func (f *handlerTransport) Close() error                              { return nil }
func (f *handlerTransport) SetHandler(h transport.Handler) {
	f.mu.Lock()
	f.h = h
	f.mu.Unlock()
}

func newHandoffRunner(t *testing.T) (*Runner, transport.Handler, *atomic.Int64) {
	t.Helper()
	var delivered atomic.Int64
	cfg := peerConfig("x", 64)
	cfg.Adaptive = false
	cfg.Deliver = func(Topic, gossip.Event) { delivered.Add(1) }
	p, err := NewPeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Subscribe("t", membership.NewRegistry("x", "s")); err != nil {
		t.Fatal(err)
	}
	tr := &handlerTransport{}
	r, err := NewRunner(RunnerConfig{Peer: p, Transport: tr, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return r, tr.h, &delivered
}

func topicEvent(seq uint64) *gossip.Message {
	return &gossip.Message{From: "s", Group: "t",
		Events: []gossip.Event{{ID: gossip.EventID{Origin: "s", Seq: seq}}}}
}

// TestRunnerHandoffReturnsAfterProcessing: the handler returns only
// once the loop has processed the message.
func TestRunnerHandoffReturnsAfterProcessing(t *testing.T) {
	r, h, delivered := newHandoffRunner(t)
	r.Start()
	defer r.Stop()
	for seq := uint64(0); seq < 100; seq++ {
		h(topicEvent(seq))
		if got := delivered.Load(); got != int64(seq)+1 {
			t.Fatalf("handler returned before the loop processed message %d (%d delivered)", seq, got)
		}
	}
}

// TestRunnerStopWithHandoffsInFlight: with or without Start, Stop does
// not deadlock against handlers blocked in the hand-off, and every
// handler returns afterwards.
func TestRunnerStopWithHandoffsInFlight(t *testing.T) {
	for _, start := range []bool{false, true} {
		r, h, _ := newHandoffRunner(t)
		if start {
			r.Start()
		}
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
