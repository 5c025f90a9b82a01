package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"adaptivegossip/internal/gossip"
)

// Event-section layer (wire v5+): events are encoded columnar, in runs
// of consecutive same-origin events (columns.go), so each sender id is
// written once per run while the original event order is preserved
// exactly.
//
// Section content (all integers unsigned varints unless noted):
//
//	count   total events
//	runs, until count events are consumed:
//	    origin, runLen, first seq, then runLen-1 zigzag seq deltas
//	    (columns.go)
//	    age     first value, then runLen-1 zigzag deltas
//	    [if traced] hop per event
//	    per event: payload uvarint len + bytes
//
// A 120-event buffer snapshot from one origin thus writes the origin id
// once and mostly 1-byte seq/age deltas, against v4's 14+ bytes of
// fixed-width headers per event.

// appendEventSection writes the columnar event rows of m (the section
// *content*; the compression framing around it is written by the
// codec). Events are validated already.
//
//gossip:hotpath
func appendEventSection(buf []byte, m *gossip.Message) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m.Events)))
	for start := 0; start < len(m.Events); {
		end := nextRun(m.Events, start, eventRowID)
		run := m.Events[start:end]
		buf = appendRunHead(buf, run[0].ID, len(run))
		for i := 1; i < len(run); i++ {
			buf = binary.AppendUvarint(buf, seqDelta(run[i-1].ID.Seq, run[i].ID.Seq))
		}
		buf = binary.AppendUvarint(buf, uint64(run[0].Age))
		for i := 1; i < len(run); i++ {
			buf = binary.AppendUvarint(buf, zigzag(int64(run[i].Age)-int64(run[i-1].Age)))
		}
		if m.Traced {
			for i := range run {
				buf = binary.AppendUvarint(buf, uint64(run[i].Hop))
			}
		}
		for i := range run {
			buf = binary.AppendUvarint(buf, uint64(len(run[i].Payload)))
			buf = append(buf, run[i].Payload...)
		}
		start = end
	}
	return buf
}

// eventSectionSize returns the exact byte size appendEventSection will
// write for m.
func eventSectionSize(m *gossip.Message) int {
	n := uvarintLen(uint64(len(m.Events)))
	for start := 0; start < len(m.Events); {
		end := nextRun(m.Events, start, eventRowID)
		run := m.Events[start:end]
		n += runHeadSize(run[0].ID, len(run))
		for i := 1; i < len(run); i++ {
			n += uvarintLen(seqDelta(run[i-1].ID.Seq, run[i].ID.Seq))
		}
		n += uvarintLen(uint64(run[0].Age))
		for i := 1; i < len(run); i++ {
			n += uvarintLen(zigzag(int64(run[i].Age) - int64(run[i-1].Age)))
		}
		if m.Traced {
			for i := range run {
				n += uvarintLen(uint64(run[i].Hop))
			}
		}
		for i := range run {
			n += uvarintLen(uint64(len(run[i].Payload))) + len(run[i].Payload)
		}
		start = end
	}
	return n
}

// decodeEventSection parses the columnar event rows into m.Events,
// enforcing the codec limits and full validity of every decoded field
// (a successful decode must re-encode). rows must be exactly the
// section content; trailing bytes error. With a scratch, origins are
// interned and payloads alias rows.
func (c Codec) decodeEventSection(rows []byte, m *gossip.Message, sc *decodeScratch) error {
	r := &reader{data: rows}
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	if count > uint64(c.MaxEvents) {
		return fmt.Errorf("%w: %d events", ErrTooLarge, count)
	}
	if count > 0 {
		// Cap the preallocation by what the remaining input could hold:
		// each event needs at least 3 bytes of columns (seq, age,
		// payload length).
		capN := int(count)
		if maxN := (len(rows)-r.off)/3 + 1; capN > maxN {
			capN = maxN
		}
		m.Events = slices.Grow(m.Events, capN)
	}
	for uint64(len(m.Events)) < count {
		origin, runLen, err := c.readRunHead(r, count-uint64(len(m.Events)), 3, sc)
		if err != nil {
			return err
		}
		base := len(m.Events)
		var seq uint64
		for i := 0; i < runLen; i++ {
			if seq, err = r.seq(i, seq); err != nil {
				return err
			}
			m.AppendEvent(gossip.Event{ID: gossip.EventID{Origin: origin, Seq: seq}})
		}
		var age int64
		for i := 0; i < runLen; i++ {
			z, err := r.uvarint()
			if err != nil {
				return err
			}
			if i == 0 {
				if z > math.MaxInt64 {
					return fmt.Errorf("%w: event age", ErrTooLarge)
				}
				age = int64(z)
			} else {
				age += unzigzag(z)
			}
			if age < 0 {
				return fmt.Errorf("transport: negative event age %d", age)
			}
			m.Events[base+i].Age = int(age)
		}
		if m.Traced {
			for i := 0; i < runLen; i++ {
				hop, err := r.uvarint()
				if err != nil {
					return err
				}
				if hop > maxUint16 {
					return fmt.Errorf("%w: hop count %d", ErrTooLarge, hop)
				}
				m.Events[base+i].Hop = int(hop)
			}
		}
		for i := 0; i < runLen; i++ {
			plen, err := r.uvarint()
			if err != nil {
				return err
			}
			if plen > uint64(c.MaxPayload) {
				return fmt.Errorf("%w: payload %d bytes", ErrTooLarge, plen)
			}
			if err := r.need(int(plen)); err != nil {
				return err
			}
			m.Events[base+i].Payload = sc.payload(rows[r.off : r.off+int(plen)])
			r.off += int(plen)
		}
	}
	if r.off != len(rows) {
		return fmt.Errorf("transport: %d trailing bytes in event section", len(rows)-r.off)
	}
	return nil
}

// Legacy (wire v4) inline event list: fixed-width headers per event,
// kept for cross-version interop and the wirecost comparison arm.

// appendEventsV4 writes the v4 inline event list.
func appendEventsV4(buf []byte, m *gossip.Message) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Events)))
	for _, ev := range m.Events {
		buf = appendString(buf, string(ev.ID.Origin))
		buf = binary.BigEndian.AppendUint64(buf, ev.ID.Seq)
		buf = binary.BigEndian.AppendUint32(buf, uint32(ev.Age))
		if m.Traced {
			buf = binary.BigEndian.AppendUint16(buf, uint16(ev.Hop))
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(ev.Payload)))
		buf = append(buf, ev.Payload...)
	}
	return buf
}

// eventWireSizeV4 is the v4 inline wire size of one event.
func eventWireSizeV4(ev gossip.Event, traced bool) int {
	n := 2 + len(ev.ID.Origin) + 8 + 4 + 4 + len(ev.Payload)
	if traced {
		n += 2
	}
	return n
}

// eventsSizeV4 is the v4 inline wire size of the whole event list.
func eventsSizeV4(m *gossip.Message) int {
	n := 4
	for _, ev := range m.Events {
		n += eventWireSizeV4(ev, m.Traced)
	}
	return n
}

// decodeEventsV4 parses the v4 inline event list into m.Events.
func (c Codec) decodeEventsV4(r *reader, m *gossip.Message, sc *decodeScratch) error {
	ne, err := r.u32()
	if err != nil {
		return err
	}
	if int64(ne) > int64(c.MaxEvents) {
		return fmt.Errorf("%w: %d events", ErrTooLarge, ne)
	}
	if ne == 0 {
		return nil
	}
	// Cap the preallocation by what the remaining input could hold (an
	// event row is at least 18 bytes), as the v5 section does.
	capN := int(ne)
	if maxN := (len(r.data)-r.off)/18 + 1; capN > maxN {
		capN = maxN
	}
	m.Events = slices.Grow(m.Events, capN)
	for i := 0; i < int(ne); i++ {
		origin, err := r.str(c.MaxIDLen, sc)
		if err != nil {
			return err
		}
		seq, err := r.u64()
		if err != nil {
			return err
		}
		age, err := r.u32()
		if err != nil {
			return err
		}
		var hop uint16
		if m.Traced {
			if hop, err = r.u16(); err != nil {
				return err
			}
		}
		plen, err := r.u32()
		if err != nil {
			return err
		}
		if int64(plen) > int64(c.MaxPayload) {
			return fmt.Errorf("%w: payload %d bytes", ErrTooLarge, plen)
		}
		if err := r.need(int(plen)); err != nil {
			return err
		}
		payload := sc.payload(r.data[r.off : r.off+int(plen)])
		r.off += int(plen)
		m.AppendEvent(gossip.Event{
			ID:      gossip.EventID{Origin: gossip.NodeID(origin), Seq: seq},
			Age:     int(age),
			Hop:     int(hop),
			Payload: payload,
		})
	}
	return nil
}
