package transport

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"adaptivegossip/internal/gossip"
)

// scratchSeeds are valid encodings of every kind and wire version plus
// compressed frames and the golden frames of earlier versions: the
// inputs the scratch decoder must agree with the owning decoder on.
func scratchSeeds(t testing.TB) [][]byte {
	t.Helper()
	c := DefaultCodec()
	cz := c
	cz.Compression = NewFlateCompressor()
	c4 := c
	c4.WireVersion = wireV4
	var seeds [][]byte
	msgs := append(kindSamples(), tracedKindSamples()...)
	msgs = append(msgs, sampleMessage(), chunkPropertyMessage(false), chunkPropertyMessage(true))
	for _, codec := range []Codec{c, cz, c4} {
		for _, m := range msgs {
			data, err := codec.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			seeds = append(seeds, data)
		}
	}
	for _, g := range goldenFrames {
		seeds = append(seeds, readGolden(t, g.file))
	}
	return seeds
}

// checkScratchDecode decodes data into sc and compares the result with
// the owning Codec.Decode of the same bytes: both must fail, or both
// succeed with equal messages (the borrowed mark aside).
func checkScratchDecode(t *testing.T, c Codec, sc *decodeScratch, data []byte) {
	t.Helper()
	input := append([]byte(nil), data...)
	want, wantErr := c.Decode(data)
	got, err := sc.decode(c, input)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("scratch decode error %v, owning decode error %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if !gossip.IsBorrowed(got) {
		t.Fatal("scratch decode result not marked borrowed")
	}
	if plain := unmarked(got); !reflect.DeepEqual(plain, want) {
		t.Fatalf("scratch decode differs from owning decode:\n got %+v\nwant %+v", plain, want)
	}
}

// unmarked returns a shallow copy of m without the borrowed mark,
// keeping every slice as it is (nil stays nil, empty stays empty).
func unmarked(m *gossip.Message) *gossip.Message {
	c := m.CopyForSend()
	c.Events, c.KMin, c.Subs, c.Unsubs = m.Events, m.KMin, m.Subs, m.Unsubs
	c.Digest, c.Request, c.Updates, c.Health = m.Digest, m.Request, m.Updates, m.Health
	return c
}

func TestScratchDecodeMatchesDecode(t *testing.T) {
	c := DefaultCodec()
	seeds := scratchSeeds(t)
	sc := newDecodeScratch()
	// Every ordered pair through one scratch: state left by the first
	// decode must not leak into the second.
	for _, a := range seeds {
		for _, b := range seeds {
			checkScratchDecode(t, c, sc, a)
			checkScratchDecode(t, c, sc, b)
		}
	}
	// Failed decodes in between must not leak either.
	for _, a := range seeds {
		checkScratchDecode(t, c, sc, a[:len(a)/2])
		checkScratchDecode(t, c, sc, a)
	}
}

// TestScratchDecodeBorrowsInput pins the lifetime the UDP dispatch path
// relies on: payloads alias the input (or the reused decompression
// buffer), ids do not.
func TestScratchDecodeBorrowsInput(t *testing.T) {
	c := DefaultCodec()
	m := &gossip.Message{From: "sender", Events: []gossip.Event{
		{ID: gossip.EventID{Origin: "origin", Seq: 1}, Payload: []byte("payload")},
	}}
	data, err := c.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	sc := newDecodeScratch()
	got, err := sc.decode(c, data)
	if err != nil {
		t.Fatal(err)
	}
	payload := got.Events[0].Payload
	for i := range data {
		data[i] = 'X'
	}
	if string(payload) != "XXXXXXX" {
		t.Fatalf("scratch payload does not alias the input: %q", payload)
	}
	if got.From != "sender" || got.Events[0].ID.Origin != "origin" {
		t.Fatalf("ids alias the input: from %q origin %q", got.From, got.Events[0].ID.Origin)
	}
	if cap(payload) != len(payload) {
		t.Fatal("borrowed payload capacity not clipped")
	}
}

// TestInternTableIsBounded: a flood of distinct ids never grows the
// table, and every lookup returns the right string.
func TestInternTableIsBounded(t *testing.T) {
	sc := newDecodeScratch()
	for i := 0; i < 4*internTableSize; i++ {
		id := []byte(strings.Repeat("n", i%7) + string(rune('a'+i%26)) + string(rune(i)))
		if got := sc.ids.intern(id); got != string(id) {
			t.Fatalf("intern(%q) = %q", id, got)
		}
	}
	if len(sc.ids.slots) != internTableSize {
		t.Fatalf("intern table has %d slots", len(sc.ids.slots))
	}
	hit := sc.ids.intern([]byte("node-7"))
	if again := sc.ids.intern([]byte("node-7")); again != hit {
		t.Fatal("repeat intern returned a different string")
	}
	if allocs := testing.AllocsPerRun(100, func() { sc.ids.intern([]byte("node-7")) }); allocs != 0 {
		t.Fatalf("intern hit allocates %v times", allocs)
	}
}

// FuzzScratchDecode is the differential target for the reused decoder:
// two inputs decoded in turn into one scratch message must each equal
// Codec.Decode of the same bytes. State leaking across reuse, or a
// wrong intern-table hit, fails it.
func FuzzScratchDecode(f *testing.F) {
	seeds := scratchSeeds(f)
	for i, a := range seeds {
		b := seeds[(i+1)%len(seeds)]
		f.Add(a, b)
		f.Add(a[:len(a)/2], b)
		f.Add(b, bytes.Clone(a[:len(a)-1]))
	}
	c := DefaultCodec()
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sc := newDecodeScratch()
		checkScratchDecode(t, c, sc, a)
		checkScratchDecode(t, c, sc, b)
		checkScratchDecode(t, c, sc, a)
	})
}
