package main

import (
	"strings"
	"testing"
	"time"

	ag "adaptivegossip"
	"adaptivegossip/internal/gossip"
)

// testRecorder offers 4 publishes a second for 1s warm-up, 1s window and
// 1s drain: slots 0-3 warm up, 4-7 are measured, 8-11 drain.
func testRecorder(topics []ag.Topic) *recorder {
	w := &rtWorkload{members: 4, rate: 4, warmup: time.Second, drain: time.Second, topics: topics}
	r := newRecorder(w, time.Second)
	r.epoch = time.Now()
	for k := range r.slots {
		r.slots[k].member, r.slots[k].topic, r.slots[k].group = int32(k%4), -1, 0b1111
		r.slots[k].state.Store(stateAdmitted)
	}
	return r
}

func delivery(r *recorder, c *corpus, member, seq int) ag.Delivery {
	s := &r.slots[seq]
	return ag.Delivery{
		Node:  r.memberName(member),
		Event: gossip.Event{ID: gossip.EventID{Origin: r.memberName(int(s.member))}, Payload: c.payload(uint64(seq), s.due, 40)},
	}
}

func TestRecorderWindowAndDeadline(t *testing.T) {
	r := testRecorder(nil)
	if r.winLo != 4 || r.winHi != 8 || len(r.slots) != 12 {
		t.Fatalf("window [%d,%d) of %d slots", r.winLo, r.winHi, len(r.slots))
	}
	c := newCorpus(1)
	for m := 0; m < 4; m++ {
		r.deliver(delivery(r, c, m, 4)) // fully delivered: atomic
	}
	for m := 0; m < 3; m++ {
		r.deliver(delivery(r, c, m, 5)) // 3 of 4 (< 95%): not atomic, failed
	}
	r.slots[6].state.Store(stateRefused) // refused: neither admitted nor failed
	for m := 0; m < 4; m++ {
		r.deliver(delivery(r, c, m, 7))
	}
	r.deadline = 0 // a delivery after the deadline is late, not on time
	r.deliver(delivery(r, c, 3, 5))
	r.deliver(delivery(r, c, 0, 1)) // warm-up slot: counted nowhere in the window

	o := r.outcome()
	if o.offered != 4 || o.admitted != 3 || o.refused != 1 {
		t.Fatalf("offered/admitted/refused = %d/%d/%d", o.offered, o.admitted, o.refused)
	}
	if o.deliveredPairs != 11 || o.expectedPairs != 12 {
		t.Fatalf("pairs %d/%d, want 11/12", o.deliveredPairs, o.expectedPairs)
	}
	if o.atomic != 2 || o.failed != 1 {
		t.Fatalf("atomic %d failed %d, want 2 and 1", o.atomic, o.failed)
	}
	if len(o.latNS) != 11 {
		t.Fatalf("%d latency samples, want 11 on-time window deliveries", len(o.latNS))
	}
	if r.violations != 0 {
		t.Fatalf("unexpected violation: %s", r.firstViol)
	}
	if got := r.deliveries(); got != 13 {
		t.Fatalf("%d deliveries counted, want 13", got)
	}
}

func TestRecorderChecks(t *testing.T) {
	c := newCorpus(1)
	cases := []struct {
		name   string
		topics []ag.Topic
		mutate func(r *recorder, d *ag.Delivery)
		want   string
	}{
		{"duplicate", nil, func(r *recorder, d *ag.Delivery) { r.deliver(*d) }, "delivered twice"},
		{"checksum", nil, func(r *recorder, d *ag.Delivery) {
			d.Event.Payload = append([]byte(nil), d.Event.Payload...)
			d.Event.Payload[30] ^= 0xFF
		}, "checksum"},
		{"origin", nil, func(r *recorder, d *ag.Delivery) { d.Event.ID.Origin = "node-03" }, "origin"},
		{"outside group", nil, func(r *recorder, d *ag.Delivery) { r.slots[4].group = 0b0001 }, "outside its group"},
		{"unknown member", nil, func(r *recorder, d *ag.Delivery) { d.Node = "stranger" }, "unknown member"},
		{"topic", []ag.Topic{"a", "b"}, func(r *recorder, d *ag.Delivery) {
			r.slots[4].topic = 0
			d.Topic = "b"
		}, "topic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := testRecorder(tc.topics)
			d := delivery(r, c, 2, 4)
			tc.mutate(r, &d)
			r.deliver(d)
			if r.violations == 0 || !strings.Contains(r.firstViol, tc.want) {
				t.Fatalf("violations %d, first %q; want one mentioning %q", r.violations, r.firstViol, tc.want)
			}
			if o := r.outcome(); o.failed == 0 {
				t.Fatal("a tripped check must fail an operation")
			}
		})
	}
}

func TestRecorderFlagsDeliveredRefusals(t *testing.T) {
	r := testRecorder(nil)
	c := newCorpus(1)
	r.slots[4].state.Store(stateRefused)
	r.deliver(delivery(r, c, 1, 4))
	r.checkRefusals()
	if r.violations != 1 || !strings.Contains(r.firstViol, "not admitted") {
		t.Fatalf("violations %d, first %q", r.violations, r.firstViol)
	}
}

// TestGroupsPool checks how an invocation's groups combine: set-up from
// the first group only, sub-window medians over every group, counts
// summed.
func TestGroupsPool(t *testing.T) {
	group := func(setup []float64, p50ms []float64, offered, admitted int) *rtRun {
		run := &rtRun{setup: setup, out: outcome{offered: offered, admitted: admitted, deliveredPairs: admitted, expectedPairs: admitted}}
		run.tallies = append(run.tallies, tally{})
		for i, ms := range p50ms {
			run.out.subLatNS = append(run.out.subLatNS, []float64{ms * 1e6})
			prev := run.tallies[i]
			run.tallies = append(run.tallies, tally{
				use:        usage{cpu: prev.use.cpu + time.Duration(ms)*time.Microsecond},
				sentBytes:  prev.sentBytes + 100,
				deliveries: prev.deliveries + 1,
			})
		}
		return run
	}
	runs := rtRuns{
		group([]float64{1, 2, 3}, []float64{10}, 100, 80),
		group(nil, []float64{30, 20}, 100, 90),
	}
	ms := runs.endToEnd()
	want := map[string]float64{
		"setup_s":                 2,
		"deliver_p50_ms":          20,
		"cpu_us_per_delivery":     20,
		"wire_bytes_per_delivery": 100,
		"admit_ratio":             0.85,
		"delivery_ratio":          1,
	}
	for name, v := range want {
		if ms[name] != v {
			t.Errorf("%s = %v, want %v", name, ms[name], v)
		}
	}
}
