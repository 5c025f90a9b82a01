package runtime

import (
	"math/rand/v2"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/recovery"
	"adaptivegossip/internal/transport"
)

// handlerTransport captures the handler a runner installs, so a test
// can play the transport's dispatch goroutine.
type handlerTransport struct {
	mu sync.Mutex
	h  transport.Handler
}

func (f *handlerTransport) LocalID() gossip.NodeID                    { return "r" }
func (f *handlerTransport) Send(gossip.NodeID, *gossip.Message) error { return nil }
func (f *handlerTransport) Close() error                              { return nil }
func (f *handlerTransport) SetHandler(h transport.Handler) {
	f.mu.Lock()
	f.h = h
	f.mu.Unlock()
}

func (f *handlerTransport) handler() transport.Handler {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.h
}

// newHandoffRunner builds a runner on a handlerTransport. Deliveries
// are counted in the returned counter.
func newHandoffRunner(t *testing.T) (*Runner, transport.Handler, *atomic.Int64) {
	t.Helper()
	var delivered atomic.Int64
	node, err := core.NewAdaptiveNode(core.NodeConfig{
		ID:      "r",
		Gossip:  gossip.Params{Fanout: 1, Period: time.Hour, MaxEvents: 256, MaxAge: 5},
		Peers:   membership.NewRegistry("r", "s"),
		RNG:     rand.New(rand.NewPCG(1, 2)),
		Deliver: func(gossip.Event) { delivered.Add(1) },
		Start:   time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := &handlerTransport{}
	r, err := NewRunner(Config{Node: node, Transport: tr, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return r, tr.handler(), &delivered
}

func oneEvent(seq uint64) *gossip.Message {
	return &gossip.Message{From: "s", Events: []gossip.Event{{ID: gossip.EventID{Origin: "s", Seq: seq}}}}
}

// returnsWithin runs fn and reports whether it returned within d.
func returnsWithin(d time.Duration, fn func()) bool {
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestRunnerHandoffReturnsAfterProcessing: the handler returns only
// once the loop has processed the message, so the transport may reuse
// it right after.
func TestRunnerHandoffReturnsAfterProcessing(t *testing.T) {
	r, h, delivered := newHandoffRunner(t)
	r.Start()
	defer r.Stop()
	for seq := uint64(0); seq < 100; seq++ {
		h(oneEvent(seq))
		if got := delivered.Load(); got != int64(seq)+1 {
			t.Fatalf("handler returned before the loop processed message %d (%d delivered)", seq, got)
		}
	}
}

// TestRunnerHandoffBeforeStartWaitsForLoop: a message arriving before
// Start is held by its handler until the loop runs, not dropped.
func TestRunnerHandoffBeforeStartWaitsForLoop(t *testing.T) {
	r, h, delivered := newHandoffRunner(t)
	defer r.Stop()
	done := make(chan struct{})
	go func() {
		h(oneEvent(0))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("handler returned before the runner started")
	case <-time.After(20 * time.Millisecond):
	}
	r.Start()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never returned after Start")
	}
	if delivered.Load() != 1 {
		t.Fatal("message handed off before Start was not processed")
	}
}

// TestRunnerHandoffAfterStopReturns: once Stop ran — with or without
// Start — a handler returns at once and the message is not processed.
func TestRunnerHandoffAfterStopReturns(t *testing.T) {
	for _, start := range []bool{false, true} {
		r, h, delivered := newHandoffRunner(t)
		if start {
			r.Start()
		}
		r.Stop()
		if !returnsWithin(5*time.Second, func() { h(oneEvent(0)) }) {
			t.Fatalf("start=%v: handler blocked after Stop", start)
		}
		if delivered.Load() != 0 {
			t.Fatalf("start=%v: message processed after Stop", start)
		}
	}
}

// TestRunnerStopWithHandoffsInFlight: Stop neither deadlocks against
// handlers blocked in the hand-off nor strands one: every handler
// returns.
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
					h(oneEvent(seq.Add(1)))
				}
			}()
		}
		time.Sleep(5 * time.Millisecond)
		if !returnsWithin(5*time.Second, r.Stop) {
			t.Fatalf("start=%v: Stop deadlocked with hand-offs in flight", start)
		}
		close(quit)
		if !returnsWithin(5*time.Second, wg.Wait) {
			t.Fatalf("start=%v: a handler stayed blocked after Stop", start)
		}
	}
}

// TestRunnerHandoffUnknownTagReturns: a message whose tag matches no
// hosted group leaves every group untouched, and its handler still
// returns.
func TestRunnerHandoffUnknownTagReturns(t *testing.T) {
	r, h, delivered := newHandoffRunner(t)
	r.Start()
	defer r.Stop()
	r.Do(func(g *Groups) {
		if err := g.Add("t", groupNode(t, 9, recovery.Params{}, "s")); err != nil {
			t.Error(err)
		}
	})
	before := r.Snapshots()
	msg := oneEvent(0)
	msg.Group = "ghost"
	if !returnsWithin(5*time.Second, func() { h(msg) }) {
		t.Fatal("handler blocked on a message for no group")
	}
	if delivered.Load() != 0 {
		t.Fatal("a message for no group was delivered")
	}
	if after := r.Snapshots(); !reflect.DeepEqual(before, after) {
		t.Fatalf("a message for no group changed group state:\nbefore %+v\nafter  %+v", before, after)
	}
}
