package runtime

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"adaptivegossip/internal/core"
	"adaptivegossip/internal/gossip"
	"adaptivegossip/internal/membership"
	"adaptivegossip/internal/observe"
	"adaptivegossip/internal/recovery"
	"adaptivegossip/internal/transport"
)

// sentRecord is what a recordingTransport saw of one sent message at
// send time: the runner reuses round messages, so the test keeps a
// copy of the fields it checks.
type sentRecord struct {
	kind   gossip.MessageKind
	group  string
	origin gossip.NodeID // origin of the first event or requested id
}

// recordingTransport is a scratch-safe many-sender that records every
// message it is asked to send. The tests drive the runner's tick and
// receive directly, on the test goroutine, so it needs no locking.
type recordingTransport struct {
	sent []sentRecord
}

func (f *recordingTransport) LocalID() gossip.NodeID                    { return "r" }
func (f *recordingTransport) Send(gossip.NodeID, *gossip.Message) error { return nil }
func (f *recordingTransport) SetHandler(transport.Handler)              {}
func (f *recordingTransport) Close() error                              { return nil }
func (f *recordingTransport) ScratchSafe()                              {}

func (f *recordingTransport) SendMany(targets []gossip.NodeID, msg *gossip.Message) (int, error) {
	if f.sent != nil {
		rec := sentRecord{kind: msg.Kind, group: msg.Group}
		switch {
		case len(msg.Events) > 0:
			rec.origin = msg.Events[0].ID.Origin
		case len(msg.Request) > 0:
			rec.origin = msg.Request[0].Origin
		}
		f.sent = append(f.sent, rec)
	}
	return len(targets), nil
}

// groupNode builds one group's node for member "r" gossiping with the
// given peers.
func groupNode(t testing.TB, seed uint64, rec recovery.Params, peers ...gossip.NodeID) *core.AdaptiveNode {
	t.Helper()
	cp := core.DefaultParams()
	cp.InitialRate = 1e6
	cp.MaxRate = 1e6
	cp.TokenBucketMax = 1e6
	node, err := core.NewAdaptiveNode(core.NodeConfig{
		ID:       "r",
		Gossip:   gossip.Params{Fanout: 3, Period: time.Second, MaxEvents: 60, MaxAge: 10},
		Adaptive: true,
		Core:     cp,
		Recovery: rec,
		Peers:    membership.NewRegistry(append([]gossip.NodeID{"r"}, peers...)...),
		RNG:      rand.New(rand.NewPCG(seed, 3)),
		Start:    time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// newGroupRunner builds an unstarted runner hosting one group per tag.
// Tests call its tick and receive directly.
func newGroupRunner(t testing.TB, tr transport.Transport, rec recovery.Params, tags ...string) *Runner {
	t.Helper()
	r, err := NewRunner(Config{Transport: tr, Period: time.Second, Metrics: &observe.RunnerMetrics{}})
	if err != nil {
		t.Fatal(err)
	}
	for i, tag := range tags {
		if err := r.groups.Add(tag, groupNode(t, uint64(i)+1, rec, "s1", "s2", "s3")); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestRunnerTagsEveryMessageWithItsGroup: with recovery on, a group
// sends round gossip and pull requests from Tick and retransmissions
// from Receive as distinct messages; every one carries its own group's
// tag. Each group hears from its own origin ("x" + tag), so a message's
// content names the group it must be tagged with.
func TestRunnerTagsEveryMessageWithItsGroup(t *testing.T) {
	tr := &recordingTransport{sent: []sentRecord{}}
	r := newGroupRunner(t, tr, recovery.Params{Enabled: true}, "a", "b")
	for _, tag := range []string{"a", "b"} {
		origin := gossip.NodeID("x" + tag)
		// One event to store, and a digest advertising two it lacks.
		r.receive(&gossip.Message{From: "s1", Group: tag,
			Events: []gossip.Event{{ID: gossip.EventID{Origin: origin, Seq: 1}}},
			Digest: []gossip.EventID{{Origin: origin, Seq: 2}, {Origin: origin, Seq: 3}}})
		// A pull request for the stored event: answered from Receive.
		r.receive(&gossip.Message{Kind: gossip.KindRecoveryRequest, From: "s2", Group: tag,
			Request: []gossip.EventID{{Origin: origin, Seq: 1}}})
	}
	r.tick()

	kinds := map[string]map[gossip.MessageKind]int{}
	for _, rec := range tr.sent {
		if rec.origin == "" {
			continue // an empty round message names no group
		}
		if want := string(rec.origin[1:]); rec.group != want {
			t.Fatalf("%v message about %s tagged %q, want %q", rec.kind, rec.origin, rec.group, want)
		}
		if kinds[rec.group] == nil {
			kinds[rec.group] = map[gossip.MessageKind]int{}
		}
		kinds[rec.group][rec.kind]++
	}
	for _, tag := range []string{"a", "b"} {
		for _, kind := range []gossip.MessageKind{gossip.KindGossip, gossip.KindRecoveryRequest, gossip.KindRecoveryResponse} {
			if kinds[tag][kind] == 0 {
				t.Fatalf("group %q sent no %v message (sent %v)", tag, kind, kinds)
			}
		}
	}
}

// groupRound publishes into every group and runs one tick of all of
// them: the steady-state round of a pub/sub member.
func groupRound(r *Runner, payload []byte) {
	now := time.Now()
	for _, g := range r.groups.list {
		for i := 0; i < 6; i++ {
			g.Node.Publish(payload, now)
		}
	}
	r.tick()
}

// TestRunnerMultiGroupRoundAllocFree: a steady-state round of a member
// hosting three groups — every group's Tick, tagging and the grouped
// send — does not allocate.
func TestRunnerMultiGroupRoundAllocFree(t *testing.T) {
	r := newGroupRunner(t, &recordingTransport{}, recovery.Params{}, "t1", "t2", "t3")
	payload := make([]byte, 16)
	for i := 0; i < 30; i++ {
		groupRound(r, payload)
	}
	allocs := testing.AllocsPerRun(100, func() { groupRound(r, payload) })
	if allocs != 0 {
		t.Fatalf("3-group round allocates %v times, want 0", allocs)
	}
}

// BenchmarkRunnerMultiGroupRound measures a pub/sub member's round with
// three groups: one 20-event message received for one group (rotating)
// and one tick of all three.
func BenchmarkRunnerMultiGroupRound(b *testing.B) {
	tags := []string{"t1", "t2", "t3"}
	r := newGroupRunner(b, &recordingTransport{}, recovery.Params{}, tags...)
	msg := &gossip.Message{From: "s1", Events: make([]gossip.Event, 20)}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		msg.Group = tags[i%len(tags)]
		for j := range msg.Events {
			msg.Events[j] = gossip.Event{ID: gossip.EventID{Origin: "s1", Seq: uint64(i*20 + j)}, Age: j % 8}
		}
		r.receive(msg)
		r.tick()
	}
}

// TestGroupsTable covers installation order, duplicate and nil
// installs, lookup and removal.
func TestGroupsTable(t *testing.T) {
	var g Groups
	nodes := make([]*core.AdaptiveNode, 3)
	for i := range nodes {
		nodes[i] = groupNode(t, uint64(i)+1, recovery.Params{}, "s1")
		if err := g.Add(fmt.Sprintf("t%d", i), nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Add("t1", nodes[0]); err == nil {
		t.Fatal("duplicate tag accepted")
	}
	if err := g.Add("nil", nil); err == nil {
		t.Fatal("nil node accepted")
	}
	if g.Node("t2") != nodes[2] || g.Node("ghost") != nil {
		t.Fatal("lookup by tag")
	}
	if !g.Remove("t1") || g.Remove("t1") {
		t.Fatal("remove reported wrongly")
	}
	list := g.List()
	if len(list) != 2 || list[0].Tag != "t0" || list[1].Tag != "t2" {
		t.Fatalf("table after remove: %+v", list)
	}
}

// TestRunnerSnapshotsEveryGroup: Snapshots covers every hosted group in
// installation order, Snapshot only the untagged one.
func TestRunnerSnapshotsEveryGroup(t *testing.T) {
	net, err := transport.NewMemNetwork()
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ep, err := net.Endpoint("r")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{Transport: ep, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	r.Do(func(g *Groups) {
		for i, tag := range []string{"x", "y"} {
			node := groupNode(t, uint64(i)+1, recovery.Params{}, "s1")
			if err := node.SetBufferCapacity(10 * (i + 1)); err != nil {
				t.Error(err)
			}
			if err := g.Add(tag, node); err != nil {
				t.Error(err)
			}
		}
	})
	snaps := r.Snapshots()
	if len(snaps) != 2 || snaps[0].BufferCap != 10 || snaps[1].BufferCap != 20 {
		t.Fatalf("snapshots %+v", snaps)
	}
	if got := r.Snapshot(); got != (NodeSnapshot{}) {
		t.Fatalf("untagged snapshot of a runner without an untagged group: %+v", got)
	}
	if r.Publish(nil) {
		t.Fatal("publish accepted without an untagged group")
	}
}
