package main

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand/v2"
)

// Payload layout, big endian:
//
//	[0:8]   seq      the generator's sequence number of the publish
//	[8:16]  due      due time, nanoseconds since the generator epoch
//	[16:20] checksum CRC-32C over [0:16] and [20:]
//	[20:]   filler   text-like bytes drawn from the seeded corpus
const payloadHeader = 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// corpus is the seeded filler source: words from a small dictionary,
// so payloads compress the way short text does instead of being
// incompressible noise.
type corpus struct {
	text []byte
	off  int
}

var dictionary = []string{
	"gossip", "round", "buffer", "event", "member", "rate", "token",
	"bucket", "age", "fanout", "digest", "probe", "alive", "suspect",
	"deliver", "publish", "topic", "minimum", "sample", "period",
	"window", "critical", "loss", "retransmit", "adaptive", "atomic",
	"broadcast", "group", "sender", "receiver", "capacity", "purge",
}

func newCorpus(seed uint64) *corpus {
	rng := rand.New(rand.NewPCG(seed, seed^0xC0FFEE))
	text := make([]byte, 0, 1<<16)
	for len(text) < cap(text)-16 {
		text = append(text, dictionary[rng.IntN(len(dictionary))]...)
		text = append(text, ' ')
	}
	return &corpus{text: text, off: rng.IntN(len(text) / 2)}
}

// payload builds the size-byte payload of publish seq due at due.
func (c *corpus) payload(seq uint64, due int64, size int) []byte {
	p := make([]byte, size)
	binary.BigEndian.PutUint64(p[0:8], seq)
	binary.BigEndian.PutUint64(p[8:16], uint64(due))
	fill := size - payloadHeader
	start := (c.off + int(seq*61)) % (len(c.text) - fill)
	copy(p[payloadHeader:], c.text[start:start+fill])
	binary.BigEndian.PutUint32(p[16:20], checksum(p))
	return p
}

func checksum(p []byte) uint32 {
	sum := crc32.Update(0, castagnoli, p[0:16])
	return crc32.Update(sum, castagnoli, p[payloadHeader:])
}

var errPayload = errors.New("payload too short or checksum mismatch")

// parsePayload verifies p's checksum and returns its sequence number
// and due time.
func parsePayload(p []byte) (seq uint64, due int64, err error) {
	if len(p) < payloadHeader || binary.BigEndian.Uint32(p[16:20]) != checksum(p) {
		return 0, 0, errPayload
	}
	return binary.BigEndian.Uint64(p[0:8]), int64(binary.BigEndian.Uint64(p[8:16])), nil
}

// payloadSeq reads the sequence number without verifying the checksum
// (the traced handler's cheap correlation key).
func payloadSeq(p []byte) (uint64, bool) {
	if len(p) < payloadHeader {
		return 0, false
	}
	return binary.BigEndian.Uint64(p[0:8]), true
}
