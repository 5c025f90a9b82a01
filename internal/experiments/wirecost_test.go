package experiments

import (
	"strings"
	"testing"
)

func TestRunWirecostValidation(t *testing.T) {
	if _, err := RunWirecost(WirecostConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := RunWirecost(WirecostConfig{Fanouts: []int{0}, Rounds: 10}); err == nil {
		t.Fatal("zero fanout accepted")
	}
}

// TestRunWirecostEncodeIndependentOfFanout is the sweep's acceptance
// check: the encode-once path's allocation cost stays flat as fanout
// grows, while the per-peer baseline scales with it — at fanout 8 by at
// least the tentpole's 4× bound.
func TestRunWirecostEncodeIndependentOfFanout(t *testing.T) {
	cfg := WirecostConfig{Fanouts: []int{1, 8}, Events: 20, Payload: 100, Rounds: 50}
	rows, err := RunWirecost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	one, eight := rows[0], rows[1]
	if eight.BytesPerRound < 7*one.BytesPerRound {
		t.Fatalf("bytes/round did not scale with fanout: %v vs %v", one.BytesPerRound, eight.BytesPerRound)
	}
	// Encode work independent of fanout: no per-target allocations.
	if eight.EncodeOnceAllocs > one.EncodeOnceAllocs+1 {
		t.Fatalf("encode-once allocs grew with fanout: %v -> %v", one.EncodeOnceAllocs, eight.EncodeOnceAllocs)
	}
	if eight.PerPeerAllocs < 8 {
		t.Fatalf("per-peer baseline allocs = %v, expected at least one per target", eight.PerPeerAllocs)
	}
	if eight.AllocRatio() < 4 {
		t.Fatalf("encode-once only %vx cheaper at fanout 8, want >= 4x", eight.AllocRatio())
	}
	// Wire-generation comparison at fanout 8: columnar v6 never costs
	// more than row-wise v4, and compressed v6 is at least 3× smaller
	// than the v4 baseline.
	if eight.BytesPerRound > eight.V4BytesPerRound {
		t.Fatalf("v6 costs more than v4: %v vs %v bytes/round", eight.BytesPerRound, eight.V4BytesPerRound)
	}
	if 3*eight.CompressedBytesPerRound > eight.V4BytesPerRound {
		t.Fatalf("v6+flate only %.1fx smaller than v4 at fanout 8, want >= 3x (%v vs %v bytes/round)",
			eight.CompressionRatio(), eight.CompressedBytesPerRound, eight.V4BytesPerRound)
	}

	var sb strings.Builder
	RenderWirecost(&sb, cfg, rows)
	if !strings.Contains(sb.String(), "fanout") || !strings.Contains(sb.String(), "encode-once") {
		t.Fatalf("render missing headers:\n%s", sb.String())
	}
}
