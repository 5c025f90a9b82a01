package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"adaptivegossip/internal/gossip"
)

// kindSamples returns one representative message per wire kind.
func kindSamples() []*gossip.Message {
	return []*gossip.Message{
		sampleMessage(), // KindGossip with digest piggyback
		{
			Kind:  gossip.KindRecoveryRequest,
			From:  "puller",
			Round: 12,
			Request: []gossip.EventID{
				{Origin: "origin-a", Seq: 3},
				{Origin: "origin-b", Seq: 1 << 50},
			},
		},
		{
			Kind:  gossip.KindRecoveryResponse,
			From:  "server",
			Round: 13,
			Events: []gossip.Event{
				{ID: gossip.EventID{Origin: "origin-a", Seq: 3}, Age: 9, Payload: []byte("repaired")},
			},
		},
		{
			Kind:     gossip.KindPing,
			From:     "prober",
			Round:    20,
			ProbeSeq: 41,
			Updates: []gossip.MemberUpdate{
				{Node: "m1", Status: gossip.MemberSuspect, Incarnation: 2},
				{Node: "m2", Status: gossip.MemberAlive, Incarnation: 3},
			},
		},
		{
			Kind:     gossip.KindPingAck,
			From:     "subject",
			Round:    21,
			Probe:    "subject",
			ProbeSeq: 41,
		},
		{
			Kind:     gossip.KindPingReq,
			From:     "prober",
			Round:    22,
			Probe:    "silent-node",
			ProbeSeq: 42,
			Updates: []gossip.MemberUpdate{
				{Node: "m3", Status: gossip.MemberConfirmed, Incarnation: 1 << 40},
			},
		},
	}
}

// TestCodecRoundTripAllKinds round-trips a representative message of
// every kind through Encode/Decode and EncodeChunks.
func TestCodecRoundTripAllKinds(t *testing.T) {
	c := DefaultCodec()
	for _, m := range kindSamples() {
		data, err := c.Encode(m)
		if err != nil {
			t.Fatalf("kind %v: encode: %v", m.Kind, err)
		}
		got, err := c.Decode(data)
		if err != nil {
			t.Fatalf("kind %v: decode: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("kind %v round trip mismatch:\n in: %#v\nout: %#v", m.Kind, m, got)
		}
		chunks, err := c.EncodeChunks(m, DefaultMaxDatagram)
		if err != nil {
			t.Fatalf("kind %v: chunks: %v", m.Kind, err)
		}
		for i, chunk := range chunks {
			dm, err := c.Decode(chunk)
			if err != nil {
				t.Fatalf("kind %v chunk %d: %v", m.Kind, i, err)
			}
			if dm.Kind != m.Kind {
				t.Errorf("kind %v chunk %d decoded as kind %v", m.Kind, i, dm.Kind)
			}
		}
	}
}

// TestCodecChunkingKeepsRecoveryHeadersOnFirstChunk: a split response
// keeps its kind on every chunk but the digest/request lists only on
// the first.
func TestCodecChunkingKeepsRecoveryHeadersOnFirstChunk(t *testing.T) {
	c := DefaultCodec()
	m := &gossip.Message{
		Kind:   gossip.KindRecoveryResponse,
		From:   "server",
		Digest: []gossip.EventID{{Origin: "x", Seq: 1}},
	}
	for i := 0; i < 200; i++ {
		m.Events = append(m.Events, gossip.Event{
			ID:      gossip.EventID{Origin: "origin", Seq: uint64(i)},
			Payload: make([]byte, 64),
		})
	}
	chunks, err := c.EncodeChunks(m, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 2 {
		t.Fatalf("expected a split, got %d chunk(s)", len(chunks))
	}
	events := 0
	for i, chunk := range chunks {
		dm, err := c.Decode(chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if dm.Kind != gossip.KindRecoveryResponse {
			t.Errorf("chunk %d lost the kind: %v", i, dm.Kind)
		}
		if i == 0 && len(dm.Digest) != 1 {
			t.Error("first chunk lost the digest")
		}
		if i > 0 && len(dm.Digest) != 0 {
			t.Errorf("chunk %d duplicated the digest", i)
		}
		events += len(dm.Events)
	}
	if events != len(m.Events) {
		t.Errorf("chunks carry %d events, want %d", events, len(m.Events))
	}
}

// TestCodecChunkingTrimsDigestForSmallDatagrams: with an MTU-sized
// bound, a full recovery digest must not wedge the send path — the
// advisory digest is trimmed until events fit.
func TestCodecChunkingTrimsDigestForSmallDatagrams(t *testing.T) {
	c := DefaultCodec()
	m := &gossip.Message{From: "sender"}
	// ~4KB of digest alone: 64 origins taking turns, so every id is a
	// run of its own in the columnar id list.
	for i := 0; i < 256; i++ {
		m.Digest = append(m.Digest, gossip.EventID{Origin: gossip.NodeID(fmt.Sprintf("some-origin-%02d", i%64)), Seq: uint64(i)})
	}
	for i := 0; i < 50; i++ {
		m.Events = append(m.Events, gossip.Event{
			ID:      gossip.EventID{Origin: "origin", Seq: uint64(i)},
			Payload: make([]byte, 100),
		})
	}
	const maxSize = 1400
	chunks, err := c.EncodeChunks(m, maxSize)
	if err != nil {
		t.Fatalf("EncodeChunks: %v", err)
	}
	events, digest := 0, 0
	for i, chunk := range chunks {
		if len(chunk) > maxSize {
			t.Fatalf("chunk %d is %d bytes > %d", i, len(chunk), maxSize)
		}
		dm, err := c.Decode(chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		events += len(dm.Events)
		digest += len(dm.Digest)
	}
	if events != len(m.Events) {
		t.Errorf("chunks carry %d events, want %d", events, len(m.Events))
	}
	if digest == 0 || digest >= 256 {
		t.Errorf("digest should be trimmed but present, got %d of 256 ids", digest)
	}
}

// TestCodecChunkingRejectsOversizedHeader: a header that cannot fit
// even after digest trimming errors instead of emitting an oversized
// datagram.
func TestCodecChunkingRejectsOversizedHeader(t *testing.T) {
	c := DefaultCodec()
	m := &gossip.Message{Kind: gossip.KindRecoveryRequest, From: "puller"}
	// Requests are not trimmable. Eight origins taking turns make every
	// id a run of its own, ~5KB against the 600 B bound.
	for i := 0; i < 200; i++ {
		m.Request = append(m.Request, gossip.EventID{Origin: gossip.NodeID(fmt.Sprintf("some-long-origin-name-%d", i%8)), Seq: uint64(i)})
	}
	if _, err := c.EncodeChunks(m, 600); err == nil {
		t.Fatal("oversized untrimmable header accepted")
	}
}

// TestCodecRejectsUnknownKind: kinds beyond the defined range fail
// encode and decode.
func TestCodecRejectsUnknownKind(t *testing.T) {
	c := DefaultCodec()
	if _, err := c.Encode(&gossip.Message{From: "a", Kind: 200}); err == nil {
		t.Error("unknown kind accepted by Encode")
	}
	data, err := c.Encode(&gossip.Message{From: "a"})
	if err != nil {
		t.Fatal(err)
	}
	data[4+1] = 200 // kind byte follows magic+version (4) and flags (1)
	if _, err := c.Decode(data); err == nil {
		t.Error("unknown kind accepted by Decode")
	}
}

// TestCodecQuickRoundTripAllKinds property-tests bounded random
// messages across every kind, digest and request lists included.
func TestCodecQuickRoundTripAllKinds(t *testing.T) {
	c := DefaultCodec()
	f := func(kindSel uint8, from string, round uint64,
		digestOrigins [][6]byte, digestSeqs []uint64,
		reqOrigins [][6]byte, reqSeqs []uint64,
		payloads [][]byte) bool {
		if len(from) > 32 {
			from = from[:32]
		}
		if from == "" {
			from = "f"
		}
		m := &gossip.Message{
			Kind:  gossip.MessageKind(kindSel % 3),
			From:  gossip.NodeID(from),
			Round: round,
		}
		mkIDs := func(origins [][6]byte, seqs []uint64) []gossip.EventID {
			n := min(len(origins), len(seqs), 12)
			ids := make([]gossip.EventID, 0, n)
			for i := 0; i < n; i++ {
				ids = append(ids, gossip.EventID{Origin: gossip.NodeID(origins[i][:]), Seq: seqs[i]})
			}
			return ids
		}
		if ids := mkIDs(digestOrigins, digestSeqs); len(ids) > 0 {
			m.Digest = ids
		}
		if ids := mkIDs(reqOrigins, reqSeqs); len(ids) > 0 {
			m.Request = ids
		}
		for i, pl := range payloads {
			if i >= 8 {
				break
			}
			if len(pl) > 512 {
				pl = pl[:512]
			}
			if len(pl) == 0 {
				pl = nil // the decoder leaves empty payloads nil
			}
			m.Events = append(m.Events, gossip.Event{
				ID:      gossip.EventID{Origin: "o", Seq: uint64(i)},
				Payload: pl,
			})
		}
		data, err := c.Encode(m)
		if err != nil {
			return false
		}
		got, err := c.Decode(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzCodecDecode seeds the fuzzer with valid encodings of every kind
// plus malformed variants; the decoder must never panic and a
// successful decode must re-encode.
func FuzzCodecDecode(f *testing.F) {
	c := DefaultCodec()
	for _, m := range kindSamples() {
		data, err := c.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// Malformed seeds: truncated, kind-corrupted, flag-corrupted,
		// trailing garbage.
		f.Add(data[:len(data)/2])
		bad := append([]byte(nil), data...)
		bad[5] = 0xFF // kind byte
		f.Add(bad)
		flg := append([]byte(nil), data...)
		flg[4] ^= 0xFF // flags byte
		f.Add(flg)
		f.Add(append(append([]byte(nil), data...), 0xAA))
	}
	// Traced (wire v4) seeds: per-event hop counters and health digests
	// on the wire, plus corrupted variants aimed at the new sections.
	for _, m := range tracedKindSamples() {
		data, err := c.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1]) // truncated inside the health tail
		tail := append([]byte(nil), data...)
		tail[len(tail)-9] ^= 0xFF // corrupt a histogram bucket entry
		f.Add(tail)
	}
	// Previous-version (v4 and v3) seeds: must still decode.
	{
		m := &gossip.Message{From: "v3-sender", Round: 7,
			Events: []gossip.Event{{ID: gossip.EventID{Origin: "o", Seq: 1}, Age: 2, Payload: []byte("p")}}}
		c4 := c
		c4.WireVersion = wireV4
		data, err := c4.Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), data...))
		v3 := data[:len(data)-2] // drop the (empty) health section...
		v3[3] = wireV3           // ...and patch the version byte
		f.Add(v3)
	}
	// Compressed (v5+flate) seeds: columnar sections compressed on the
	// wire, plus variants corrupting the compression envelope and the
	// deflate stream itself.
	{
		cz := c
		cz.Compression = NewFlateCompressor()
		for _, m := range []*gossip.Message{sampleMessage(), tracedKindSamples()[0]} {
			data, err := cz.Encode(m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(append([]byte(nil), data...))
			f.Add(append([]byte(nil), data[:len(data)-4]...)) // truncated deflate stream
			bad := append([]byte(nil), data...)
			bad[len(bad)-1] ^= 0xFF // corrupt the deflate stream tail
			f.Add(bad)
			noflag := append([]byte(nil), data...)
			noflag[4] &^= flagCompress // compressed body, flag cleared
			f.Add(noflag)
		}
	}
	// Golden frames of every version, as the encoders of their day wrote
	// them (testdata/).
	for _, g := range goldenFrames {
		f.Add(readGolden(f, g.file))
	}
	f.Add([]byte{})
	f.Add([]byte("AGB"))
	f.Add([]byte{'A', 'G', 'B', 1}) // old version: must be rejected
	// Spoofed digest count (0xFFFF fixed-width, 65535 as a v6 uvarint)
	// in a tiny datagram: the decoder must fail on truncation without
	// committing large allocations.
	f.Add([]byte{'A', 'G', 'B', wireV5, 0, 0, 0, 1, 'x', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF})
	f.Add([]byte{'A', 'G', 'B', codecVersion, 0, 0, 0, 1, 'x', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0x03})
	// Spoofed health count in a minimal message (the health count is
	// the 2 bytes before the 3-byte empty event section).
	if data, err := c.Encode(&gossip.Message{From: "x"}); err == nil {
		spoof := append([]byte(nil), data[:len(data)-5]...)
		spoof = append(spoof, 0xFF, 0xFF)
		f.Add(spoof)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := c.Decode(data)
		if err != nil {
			return
		}
		if _, err := c.Encode(m); err != nil {
			t.Errorf("decoded message fails re-encode: %v", err)
		}
	})
}
