package transport

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"adaptivegossip/internal/gossip"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the current-version golden frames under testdata/")

// Golden frames: fixed wire bytes under testdata/, one file per
// (version, message) pair. Frames of earlier versions were written by
// that version's encoder and are never regenerated; they pin that a
// current decoder still reads what older nodes send. Current-version
// frames are rewritten with -update-golden when the layout changes on
// purpose.

// goldenDigestMessage is a gossip round with an adaptation header,
// κ-entries, events and a recovery digest whose ids interleave several
// origins, repeat one, wrap seqs around 2^64 and include an empty
// origin, so the id-list encoding has to keep order exactly.
func goldenDigestMessage() *gossip.Message {
	origins := []gossip.NodeID{"node-01", "node-02", "node-03", "node-10"}
	m := &gossip.Message{
		From:         "node-07",
		Group:        "topic-a",
		Round:        4242,
		Adaptive:     true,
		SamplePeriod: 9,
		MinBuff:      -3,
		KMin: []gossip.BuffCap{
			{Node: "node-02", Cap: 45},
			{Node: "node-11", Cap: 60},
		},
		Events: []gossip.Event{
			{ID: gossip.EventID{Origin: "node-02", Seq: 17}, Age: 3, Payload: []byte("hello")},
			{ID: gossip.EventID{Origin: "node-02", Seq: 18}, Age: 2, Payload: []byte("world")},
			{ID: gossip.EventID{Origin: "node-07", Seq: 1}, Age: 0},
		},
	}
	for i := 0; i < 24; i++ {
		m.Digest = append(m.Digest, gossip.EventID{Origin: origins[(i*7/5)%len(origins)], Seq: uint64(100 + 3*i)})
	}
	m.Digest = append(m.Digest,
		gossip.EventID{Origin: "node-10", Seq: 1<<63 + 5},
		gossip.EventID{Origin: "node-10", Seq: 0},
		gossip.EventID{Origin: "node-10", Seq: math.MaxUint64},
		gossip.EventID{Origin: "", Seq: 5},
		gossip.EventID{Origin: "node-01", Seq: 100},
	)
	return m
}

// goldenRequestMessage is a pull request whose ids come in sorted
// same-origin runs with gaps, the shape the recovery engine sends.
func goldenRequestMessage() *gossip.Message {
	m := &gossip.Message{Kind: gossip.KindRecoveryRequest, From: "puller", Round: 77}
	for i, o := range []gossip.NodeID{"origin-a", "origin-b", "origin-c"} {
		for j := 0; j < 4; j++ {
			m.Request = append(m.Request, gossip.EventID{Origin: o, Seq: uint64(1000*i + 5*j*j)})
		}
	}
	return m
}

// goldenHealthMessage is a traced round carrying three health digests:
// a typical one, one at every field's upper extreme (all 65 histogram
// buckets set) and one at the lower extremes (negative buffer values,
// no buckets).
func goldenHealthMessage() *gossip.Message {
	high := gossip.HealthDigest{
		Node: "node-02", Round: math.MaxUint64, WallMillis: math.MaxUint64,
		Published: math.MaxUint64, Delivered: math.MaxUint64,
		DroppedCapacity: math.MaxUint64, DroppedExpired: math.MaxUint64,
		MessagesSent: math.MaxUint64, MessagesReceived: math.MaxUint64,
		BytesSent: math.MaxUint64, BytesReceived: math.MaxUint64,
		BufferLen: math.MaxInt32, BufferCap: math.MaxInt32,
	}
	high.DeliverHops.Count = math.MaxUint64
	high.DeliverHops.Sum = math.MaxUint64
	for i := range high.DeliverHops.Buckets {
		high.DeliverHops.Buckets[i] = math.MaxUint64 >> (i % 64)
	}
	low := gossip.HealthDigest{Node: "node-03", BufferLen: math.MinInt32, BufferCap: -1}
	return &gossip.Message{
		From:   "node-05",
		Round:  9,
		Traced: true,
		Events: []gossip.Event{
			{ID: gossip.EventID{Origin: "node-05", Seq: 3}, Age: 1, Hop: 0, Payload: []byte("a")},
			{ID: gossip.EventID{Origin: "node-01", Seq: 8}, Age: 4, Hop: 3, Payload: []byte("bc")},
		},
		Subs:   []gossip.NodeID{"node-09"},
		Unsubs: []gossip.NodeID{"node-04"},
		Health: []gossip.HealthDigest{sampleHealthDigest("node-01"), high, low},
	}
}

// goldenFlateMessage is goldenDigestMessage with enough repetitive
// payload that flate compresses its event section.
func goldenFlateMessage() *gossip.Message {
	m := goldenDigestMessage()
	m.Events = nil
	for i := 0; i < 10; i++ {
		m.Events = append(m.Events, gossip.Event{
			ID:      gossip.EventID{Origin: "node-03", Seq: uint64(50 + i)},
			Age:     i % 3,
			Payload: bytes.Repeat([]byte("payload-"), 25),
		})
	}
	return m
}

// goldenFrames lists every file under testdata/ and the message it
// decodes to. flate marks frames whose event section is compressed.
var goldenFrames = []struct {
	file  string
	msg   func() *gossip.Message
	flate bool
}{
	{"wire_v3_digest.bin", goldenDigestMessage, false}, // untraced and health-free, as v3 requires
	{"wire_v4_health.bin", goldenHealthMessage, false},
	{"wire_v5_digest.bin", goldenDigestMessage, false},
	{"wire_v5_request.bin", goldenRequestMessage, false},
	{"wire_v5_health.bin", goldenHealthMessage, false},
	{"wire_v5_flate.bin", goldenFlateMessage, true},
	{"wire_v6_digest.bin", goldenDigestMessage, false},
	{"wire_v6_request.bin", goldenRequestMessage, false},
	{"wire_v6_health.bin", goldenHealthMessage, false},
	{"wire_v6_flate.bin", goldenFlateMessage, true},
}

func readGolden(t testing.TB, file string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goldenVersion is the wire version a golden file name declares.
func goldenVersion(file string) byte { return file[len("wire_v")] - '0' }

// TestGoldenFramesDecode: every golden frame, of every version, decodes
// to its message through both the owning and the scratch decoder.
func TestGoldenFramesDecode(t *testing.T) {
	c := DefaultCodec()
	sc := newDecodeScratch()
	for _, g := range goldenFrames {
		data := readGolden(t, g.file)
		if data[3] != goldenVersion(g.file) {
			t.Fatalf("%s: version byte %d", g.file, data[3])
		}
		if compressed := data[4]&flagCompress != 0; compressed != g.flate {
			t.Fatalf("%s: compressed = %t, want %t", g.file, compressed, g.flate)
		}
		got, err := c.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		if want := g.msg(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s decodes to\n%#v\nwant\n%#v", g.file, got, want)
		}
		checkScratchDecode(t, c, sc, data)
	}
}

// TestGoldenFramesCurrentEncoding: the encoder writes the current
// version's golden frames byte for byte, so a layout change cannot go
// unnoticed. Flate frames are exempt (their bytes belong to the
// compress/flate release); they only have to decode. Run with
// -update-golden to rewrite the current-version files after an
// intended change.
func TestGoldenFramesCurrentEncoding(t *testing.T) {
	for _, g := range goldenFrames {
		if goldenVersion(g.file) != codecVersion {
			continue
		}
		c := DefaultCodec()
		if g.flate {
			c.Compression = NewFlateCompressor()
		}
		data, err := c.Encode(g.msg())
		if err != nil {
			t.Fatal(err)
		}
		if *updateGolden {
			if err := os.WriteFile(filepath.Join("testdata", g.file), data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if !g.flate && !bytes.Equal(data, readGolden(t, g.file)) {
			t.Errorf("%s: encoder output differs from the golden frame", g.file)
		}
	}
}
