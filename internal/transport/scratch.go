package transport

import (
	"hash/maphash"

	"adaptivegossip/internal/gossip"
)

// Scratch decoding: a UDP endpoint's dispatch goroutine decodes every
// datagram into one reused message instead of allocating a fresh one.
// The scratch message borrows from its inputs — event payloads alias
// the datagram (or the reused decompression buffer) and ids come from a
// bounded intern table — so it is marked gossip.MarkBorrowed and is
// valid only until the handler returns. Codec.Decode runs the same
// parser with no scratch and returns a message that owns its memory.

// Retention bounds: a decode that grew a scratch array past these (a
// hostile or freak datagram) leaves it to the GC instead of pinning it
// for the endpoint's lifetime. Real round messages stay far below them.
const (
	maxKeptEvents   = 4096
	maxKeptEntries  = 1024
	maxKeptSection  = 1 << 20
	internTableSize = 1024 // slots; a power of two
)

// decodeScratch is one endpoint's reusable decode state. It is not safe
// for concurrent use: one dispatch goroutine owns it.
type decodeScratch struct {
	msg gossip.Message

	// Backing arrays of msg's slices, kept across decodes (msg itself
	// holds nil for an empty list, exactly like an owning decode).
	events  []gossip.Event
	kmin    []gossip.BuffCap
	subs    []gossip.NodeID
	unsubs  []gossip.NodeID
	digest  []gossip.EventID
	request []gossip.EventID
	updates []gossip.MemberUpdate
	health  []gossip.HealthDigest
	section []byte // decompressed event section

	ids internTable
}

func newDecodeScratch() *decodeScratch {
	return &decodeScratch{ids: internTable{seed: maphash.MakeSeed()}}
}

// decode parses data into the scratch message and marks it borrowed.
// The result, and everything reachable from it, is valid until the
// next decode on sc.
//
//gossip:scratch
func (sc *decodeScratch) decode(c Codec, data []byte) (*gossip.Message, error) {
	m := &sc.msg
	*m = gossip.Message{
		Events: sc.events[:0], KMin: sc.kmin[:0],
		Subs: sc.subs[:0], Unsubs: sc.unsubs[:0],
		Digest: sc.digest[:0], Request: sc.request[:0],
		Updates: sc.updates[:0], Health: sc.health[:0],
	}
	err := c.decode(data, m, sc)
	m.Events = settle(&sc.events, m.Events, maxKeptEvents)
	m.KMin = settle(&sc.kmin, m.KMin, maxKeptEntries)
	m.Subs = settle(&sc.subs, m.Subs, maxKeptEntries)
	m.Unsubs = settle(&sc.unsubs, m.Unsubs, maxKeptEntries)
	m.Digest = settle(&sc.digest, m.Digest, maxKeptEntries)
	m.Request = settle(&sc.request, m.Request, maxKeptEntries)
	m.Updates = settle(&sc.updates, m.Updates, maxKeptEntries)
	m.Health = settle(&sc.health, m.Health, maxKeptEntries)
	if cap(sc.section) > maxKeptSection {
		sc.section = nil
	}
	if err != nil {
		return nil, err
	}
	gossip.MarkBorrowed(m)
	return m, nil
}

// settle saves s's backing array in *keep for the next decode (unless
// it grew past limit elements) and returns s, or nil when empty so a
// scratch decode equals an owning one field for field.
func settle[T any](keep *[]T, s []T, limit int) []T {
	if cap(s) <= limit {
		*keep = s[:0]
	} else {
		*keep = nil
	}
	if len(s) == 0 {
		return nil
	}
	return s
}

// intern returns the string for an identifier's wire bytes: a fresh
// copy for an owning decode (sc == nil), the shared interned string
// otherwise.
func (sc *decodeScratch) intern(b []byte) string {
	if sc == nil {
		return string(b)
	}
	return sc.ids.intern(b)
}

// payload returns an event payload read from the wire: a fresh copy for
// an owning decode, the input bytes themselves (capacity clipped) for a
// scratch decode. Empty payloads decode as nil either way.
func (sc *decodeScratch) payload(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	if sc == nil {
		return append([]byte(nil), b...)
	}
	return b[:len(b):len(b)]
}

// internTable maps identifier bytes to shared strings, so the node and
// origin ids of a steady stream of datagrams cost no allocation. It is
// direct-mapped with a fixed number of slots: a miss replaces the slot,
// so a sender flooding fresh ids costs allocations, never growth.
type internTable struct {
	seed  maphash.Seed
	slots [internTableSize]string
}

func (t *internTable) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	slot := &t.slots[maphash.Bytes(t.seed, b)&(internTableSize-1)]
	if *slot == string(b) {
		return *slot
	}
	s := string(b)
	*slot = s
	return s
}
