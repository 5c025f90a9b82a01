package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.99, 3.97}, {-1, 1}, {2, 4},
	}
	for _, c := range cases {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of empty = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if xs[0] != 5 || xs[1] != 1 {
		t.Fatalf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
}

func TestRatioAndMean(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Fatal("ratio must divide and map a zero base to 0")
	}
	if mean(nil) != 0 || mean([]float64{1, 2, 6}) != 3 {
		t.Fatal("mean wrong")
	}
	d := durations{1000, 3000, 2000}
	m, p50, p99 := d.summary()
	if m != 2 || p50 != 2 || math.Abs(p99-2.98) > 1e-9 {
		t.Fatalf("summary = %v %v %v, want 2 2 2.98 (us)", m, p50, p99)
	}
}

func TestMetricSetDropsNaN(t *testing.T) {
	ms := metricSet{}
	ms.add("b", 1)
	ms.add("a", math.NaN())
	ms.add("c", math.Inf(1))
	ms.add("b", 2)
	if ms["a"] != 0 || ms["c"] != 0 || ms["b"] != 2 {
		t.Fatalf("values %v", ms)
	}
}

// The metric tables are what the benchmark prints; BENCHMARK.json is
// what the runs are judged against. They must name the same metrics,
// in the same units.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, table []metric, declared []struct{ Name, Unit string }) {
		if len(table) != len(declared) {
			t.Fatalf("%s: %d metrics printed, %d declared", kind, len(table), len(declared))
		}
		for i, m := range table {
			if m.name != declared[i].Name || m.unit != declared[i].Unit {
				t.Errorf("%s %d: printed %s [%s], declared %s [%s]", kind, i, m.name, m.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

func TestParseProm(t *testing.T) {
	text := `# HELP x
gossip_tick_nanos_sum 1500
gossip_tick_nanos_count 3
gossip_peer_sent{peer="a"} 2
gossip_peer_sent{peer="b"} 5
garbage
`
	p := parseProm(strings.NewReader(text))
	if p.get("gossip_tick_nanos_sum") != 1500 || p.get("gossip_tick_nanos_count") != 3 {
		t.Fatalf("histogram fields: %v", p)
	}
	if p.get("gossip_peer_sent") != 7 {
		t.Fatalf("labelled values must sum: %v", p)
	}
	if p.get("missing") != 0 {
		t.Fatal("missing metric must read 0")
	}
}

func TestPayloadRoundTripAndCorruption(t *testing.T) {
	c := newCorpus(9)
	p := c.payload(42, 12345, 64)
	seq, due, err := parsePayload(p)
	if err != nil || seq != 42 || due != 12345 {
		t.Fatalf("parse = %d %d %v", seq, due, err)
	}
	if again := newCorpus(9).payload(42, 12345, 64); string(again) != string(p) {
		t.Fatal("the same seed must give the same payload")
	}
	for _, i := range []int{0, 9, 17, 40} {
		bad := append([]byte(nil), p...)
		bad[i] ^= 1
		if _, _, err := parsePayload(bad); err == nil {
			t.Errorf("flipping byte %d went unnoticed", i)
		}
	}
	if _, _, err := parsePayload(p[:10]); err == nil {
		t.Error("short payload accepted")
	}
}
