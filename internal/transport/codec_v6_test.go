package transport

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"adaptivegossip/internal/gossip"
)

// engineDigest returns a full default-length recovery digest as the
// recovery engine sends it: 128 ids, 8 recent seqs from each of 16
// origins, sorted by (origin, seq).
func engineDigest() []gossip.EventID {
	var ids []gossip.EventID
	for i := 0; i < 128; i++ {
		ids = append(ids, gossip.EventID{Origin: gossip.NodeID(fmt.Sprintf("node-%02d", i%16)), Seq: uint64(5000 + i/16)})
	}
	slices.SortFunc(ids, func(a, b gossip.EventID) int {
		if c := cmp.Compare(a.Origin, b.Origin); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	return ids
}

// TestWireSizeContract pins what wire v6 costs a round message's
// control section at the default recovery and health settings: a full
// 128-id digest from 16 origins (2176 B fixed-width) and four health
// digests (564 B fixed-width).
func TestWireSizeContract(t *testing.T) {
	digest := len(appendIDColumns(nil, engineDigest()))
	if digest > 320 {
		t.Errorf("128-id, 16-origin digest encodes in %d B, want at most 320", digest)
	}
	m := &gossip.Message{From: "node-00"}
	base := controlPostSize(codecVersion, m)
	for i := 0; i < 4; i++ {
		m.Health = append(m.Health, sampleHealthDigest(gossip.NodeID(fmt.Sprintf("node-%02d", i))))
	}
	health := controlPostSize(codecVersion, m) - base
	if health > 280 {
		t.Errorf("4 health digests encode in %d B, want at most 280", health)
	}
	t.Logf("digest %d B, 4 health digests %d B", digest, health)
}

// TestIDColumnsRoundTrip: id lists of every shape come back in their
// exact order, and the size function matches the encoder.
func TestIDColumnsRoundTrip(t *testing.T) {
	c := DefaultCodec()
	lists := [][]gossip.EventID{
		nil,
		{{Origin: "a", Seq: 0}},
		engineDigest(),
		goldenDigestMessage().Digest,
		goldenRequestMessage().Request,
		{{Origin: "a", Seq: math.MaxUint64}, {Origin: "a", Seq: 0}, {Origin: "b", Seq: 1}, {Origin: "a", Seq: 1 << 63}},
	}
	for i, ids := range lists {
		enc := appendIDColumns(nil, ids)
		if len(enc) != idColumnsSize(ids) {
			t.Errorf("list %d: encoded %d B, size says %d", i, len(enc), idColumnsSize(ids))
		}
		r := &reader{data: enc}
		got, err := c.readIDColumns(r, nil, nil)
		if err != nil {
			t.Fatalf("list %d: %v", i, err)
		}
		if !slices.Equal(got, ids) || r.off != len(enc) {
			t.Errorf("list %d: decoded %v (%d of %d B), want %v", i, got, r.off, len(enc), ids)
		}
	}
}

// TestIDColumnsRejectsHostileInput: the id-list decoder keeps the
// bounds of the fixed-width lists it replaced.
func TestIDColumnsRejectsHostileInput(t *testing.T) {
	c := DefaultCodec()
	long := make([]byte, c.MaxIDLen+1)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"count over 65535", []byte{0x80, 0x80, 0x04, 0x01, 'a', 0x01, 0x00}},
		{"empty run", []byte{0x02, 0x01, 'a', 0x00}},
		{"run longer than count", []byte{0x01, 0x01, 'a', 0x02, 0x00, 0x02}},
		{"run longer than input", []byte{0x40, 0x01, 'a', 0x40, 0x00}},
		{"origin too long", append(append([]byte{0x01, 0x81, 0x02}, long...), 0x01, 0x00)},
		{"truncated origin", []byte{0x01, 0x05, 'a'}},
		{"truncated seq column", []byte{0x03, 0x01, 'a', 0x03, 0x00, 0x02}},
		{"over-long varint", []byte{0x01, 0x01, 'a', 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}},
	} {
		if ids, err := c.readIDColumns(&reader{data: tc.data}, nil, nil); err == nil {
			t.Errorf("%s: accepted as %v", tc.name, ids)
		}
	}
}

// TestHealthVarintRejectsBufferOutsideInt32: the v6 buffer values are
// zigzag varints, and the decoder keeps them to the int32 range the
// fixed-width field held; the encoder refuses such digests outright.
func TestHealthVarintRejectsBufferOutsideInt32(t *testing.T) {
	c := DefaultCodec()
	d := gossip.HealthDigest{Node: "h"}
	m := &gossip.Message{From: "a", Health: []gossip.HealthDigest{d}}
	data, err := c.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// The digest ends the control fields: node, 10 counters, bufferLen,
	// bufferCap, count, sum, nb (all 1 byte when zero), then the 3-byte
	// empty event section. Splice a bufferLen of 2^31 in.
	lenPos := len(data) - 3 - 5
	splice := func(v int64) []byte {
		out := append([]byte(nil), data[:lenPos]...)
		out = appendUvarintHelper(out, zigzag(v))
		return append(out, data[lenPos+1:]...)
	}
	if got, err := c.Decode(splice(math.MinInt32)); err != nil || got.Health[0].BufferLen != math.MinInt32 {
		t.Fatalf("bufferLen -2^31 spliced in: %v", err)
	}
	for _, v := range []int64{math.MaxInt32 + 1, math.MinInt32 - 1, math.MaxInt64} {
		if _, err := c.Decode(splice(v)); err == nil {
			t.Errorf("bufferLen %d accepted", v)
		}
	}
	for _, v := range []int{math.MaxInt32 + 1, math.MinInt32 - 1} {
		d.BufferCap = v
		if _, err := c.Encode(&gossip.Message{From: "a", Health: []gossip.HealthDigest{d}}); err == nil {
			t.Errorf("bufferCap %d encoded", v)
		}
	}
}

// TestCodecEncodeRejectsWireVersion5: v5 is a decode-only version.
func TestCodecEncodeRejectsWireVersion5(t *testing.T) {
	c := DefaultCodec()
	c.WireVersion = wireV5
	if _, err := c.Encode(sampleMessage()); err == nil {
		t.Fatal("WireVersion 5 encoded")
	}
}

// countingCompressor is a Compressor that counts its Compress calls and
// stores its input unchanged.
type countingCompressor struct{ calls atomic.Int64 }

func (f *countingCompressor) ID() byte     { return 0x42 }
func (f *countingCompressor) Name() string { return "counting" }
func (f *countingCompressor) Compress(dst, src []byte) ([]byte, error) {
	f.calls.Add(1)
	return append(dst, src...), nil
}
func (f *countingCompressor) Decompress(dst, src []byte, rawLen int) ([]byte, error) {
	return append(dst, src...), nil
}

// TestCompressorSkippedWithoutEvents: a message with no events never
// reaches the compressor, and its frame and CodecStats equal the
// uncompressed encode's byte for byte.
func TestCompressorSkippedWithoutEvents(t *testing.T) {
	fake := &countingCompressor{}
	for _, m := range append(kindSamples(), tracedKindSamples()...) {
		if len(m.Events) > 0 {
			continue
		}
		cz, plain := DefaultCodec(), DefaultCodec()
		cz.Compression = fake
		cz.Stats, plain.Stats = &CodecStats{}, &CodecStats{}
		got, err := cz.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("kind %v: compressed-codec frame differs from the stored encode", m.Kind)
		}
		if cz.Stats.PreCompressionBytes.Load() != plain.Stats.PreCompressionBytes.Load() ||
			cz.Stats.PostCompressionBytes.Load() != plain.Stats.PostCompressionBytes.Load() {
			t.Errorf("kind %v: stats differ from the stored encode", m.Kind)
		}
	}
	if n := fake.calls.Load(); n != 0 {
		t.Fatalf("compressor called %d times for event-less messages", n)
	}
	if _, err := (Codec{Compression: fake}).Encode(sampleMessage()); err != nil {
		t.Fatal(err)
	}
	if fake.calls.Load() != 1 {
		t.Fatal("compressor not called for a message with events")
	}
}

// messageIDs lists the distinct identifiers a scratch decode of m
// interns.
func messageIDs(m *gossip.Message) []string {
	ids := []string{string(m.From), m.Group, string(m.Probe)}
	for _, e := range m.KMin {
		ids = append(ids, string(e.Node))
	}
	for _, ev := range m.Events {
		ids = append(ids, string(ev.ID.Origin))
	}
	for _, id := range append(slices.Clone(m.Digest), m.Request...) {
		ids = append(ids, string(id.Origin))
	}
	for _, d := range m.Health {
		ids = append(ids, string(d.Node))
	}
	for _, s := range append(slices.Clone(m.Subs), m.Unsubs...) {
		ids = append(ids, string(s))
	}
	slices.Sort(ids)
	return slices.Compact(slices.DeleteFunc(ids, func(s string) bool { return s == "" }))
}

// TestScratchDecodeV6AllocFree: a scratch decode of a v6 frame with a
// recovery digest, health digests, κ-entries and events allocates
// nothing once its ids are interned. The intern table is direct-mapped,
// so the scratch is given a seed under which this frame's ids take
// distinct slots: the test measures the decoder, not table collisions.
func TestScratchDecodeV6AllocFree(t *testing.T) {
	c := DefaultCodec()
	m := goldenDigestMessage()
	m.Traced = true
	m.Health = goldenHealthMessage().Health
	data, err := c.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	ids := messageIDs(m)
	var sc *decodeScratch
	for try := 0; sc == nil; try++ {
		if try == 100 {
			t.Fatal("no intern seed without a slot collision")
		}
		sc = newDecodeScratch()
		slots := map[uint64]bool{}
		for _, id := range ids {
			slot := maphash.String(sc.ids.seed, id) & (internTableSize - 1)
			if slots[slot] {
				sc = nil
				break
			}
			slots[slot] = true
		}
	}
	if _, err := sc.decode(c, data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sc.decode(c, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scratch decode of a v6 frame allocates %v times, want 0", allocs)
	}
}

// FuzzIDColumns is the differential target for the v6 id-list decoder:
// arbitrary input never panics, the owning and scratch decodes agree,
// and a decoded list re-encodes to one that decodes back identically.
func FuzzIDColumns(f *testing.F) {
	for _, ids := range [][]gossip.EventID{
		engineDigest(), goldenDigestMessage().Digest, goldenRequestMessage().Request,
	} {
		enc := appendIDColumns(nil, ids)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0x03, 0x01, 'a', 0xFF, 0xFF, 0x03})
	f.Add([]byte{0x02, 0x01, 'a', 0x01, 0x00, 0x01, 'a', 0x01, 0x00})
	c := DefaultCodec()
	sc := newDecodeScratch()
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &reader{data: data}
		ids, err := c.readIDColumns(r, nil, nil)
		rs := &reader{data: data}
		sids, serr := c.readIDColumns(rs, sc.digest[:0], sc)
		sc.digest = sids[:0]
		if (err == nil) != (serr == nil) {
			t.Fatalf("owning decode error %v, scratch decode error %v", err, serr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(ids, sids) || r.off != rs.off {
			t.Fatalf("scratch decode %v (%d B) differs from owning decode %v (%d B)", sids, rs.off, ids, r.off)
		}
		enc := appendIDColumns(nil, ids)
		if len(enc) != idColumnsSize(ids) {
			t.Fatalf("encoded %d B, size says %d", len(enc), idColumnsSize(ids))
		}
		back, err := c.readIDColumns(&reader{data: enc}, nil, nil)
		if err != nil {
			t.Fatalf("re-encoded list fails decode: %v", err)
		}
		if !slices.Equal(back, ids) {
			t.Fatalf("round trip %v, want %v", back, ids)
		}
	})
}
