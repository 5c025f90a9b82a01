package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"adaptivegossip/internal/gossip"
)

// Frame constants shared by every wire version. The frame header is the
// fixed prefix of a datagram: magic, version, flags and the message
// kind; everything after it is version-dependent (see codec.go for the
// full layout and version history).
const (
	codecVersion  = 6 // current wire version (columnar id lists, varint health digests)
	wireV5        = 5 // v6 with fixed-width id lists and health digests
	wireV4        = 4 // fixed-width inline event list, no compression seam
	wireV3        = 3 // v4 minus trace context and health digests
	flagAdaptive  = 1 << 0
	flagGroup     = 1 << 1
	flagTraced    = 1 << 2
	flagCompress  = 1 << 3 // v5+: the event section is compressed
	maxUint16     = 1<<16 - 1
	frameHdrBytes = 3 + 1 + 1 + 1 // magic + version + flags + kind
)

var codecMagic = [3]byte{'A', 'G', 'B'}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// appendFrame writes the fixed frame header: magic, wire version and
// the flag byte derived from the message, then the kind.
//
//gossip:hotpath
func appendFrame(buf []byte, version byte, m *gossip.Message) []byte {
	buf = append(buf, codecMagic[:]...)
	buf = append(buf, version)
	var flags byte
	if m.Adaptive {
		flags |= flagAdaptive
	}
	if m.Group != "" {
		flags |= flagGroup
	}
	if m.Traced {
		flags |= flagTraced
	}
	buf = append(buf, flags)
	buf = append(buf, byte(m.Kind))
	return buf
}

// appendControlPre writes the leading control fields of the given wire
// version (the current one or legacy v4): addressing, round, adaptation
// header, κ-entries, the recovery id lists (columnar from v6 on) and
// the failure-detection fields. In v4 the inline event list follows;
// from v5 on the trailing control fields do.
//
//gossip:hotpath
func appendControlPre(buf []byte, version byte, m *gossip.Message) []byte {
	buf = appendString(buf, string(m.From))
	if m.Group != "" {
		buf = appendString(buf, m.Group)
	}
	buf = binary.BigEndian.AppendUint64(buf, m.Round)
	if m.Adaptive {
		buf = binary.BigEndian.AppendUint64(buf, m.SamplePeriod)
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(m.MinBuff)))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.KMin)))
	for _, e := range m.KMin {
		buf = appendString(buf, string(e.Node))
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(e.Cap)))
	}
	for _, ids := range [2][]gossip.EventID{m.Digest, m.Request} {
		if version >= codecVersion {
			buf = appendIDColumns(buf, ids)
			continue
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(ids)))
		for _, id := range ids {
			buf = appendString(buf, string(id.Origin))
			buf = binary.BigEndian.AppendUint64(buf, id.Seq)
		}
	}
	buf = appendString(buf, string(m.Probe))
	buf = binary.BigEndian.AppendUint64(buf, m.ProbeSeq)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Updates)))
	for _, u := range m.Updates {
		buf = appendString(buf, string(u.Node))
		buf = append(buf, byte(u.Status))
		buf = binary.BigEndian.AppendUint64(buf, u.Incarnation)
	}
	return buf
}

// appendControlPost writes the trailing control fields: membership
// churn and the health-digest piggyback (varint counters from v6 on).
//
//gossip:hotpath
func appendControlPost(buf []byte, version byte, m *gossip.Message) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Subs)))
	for _, s := range m.Subs {
		buf = appendString(buf, string(s))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Unsubs)))
	for _, s := range m.Unsubs {
		buf = appendString(buf, string(s))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Health)))
	for i := range m.Health {
		if version >= codecVersion {
			buf = appendHealthVarint(buf, &m.Health[i])
		} else {
			buf = appendHealthFixed(buf, &m.Health[i])
		}
	}
	return buf
}

// healthCounters lists a digest's ten counters in wire order.
func healthCounters(d *gossip.HealthDigest) [10]uint64 {
	return [10]uint64{d.Round, d.WallMillis,
		d.Published, d.Delivered, d.DroppedCapacity, d.DroppedExpired,
		d.MessagesSent, d.MessagesReceived, d.BytesSent, d.BytesReceived}
}

// appendHealthVarint writes one wire v6 health digest: uvarint
// counters, zigzag buffer occupancy and capacity, then the
// delivery-hops histogram in sparse canonical form (only non-zero
// buckets, indexes ascending, uvarint values).
//
//gossip:hotpath
func appendHealthVarint(buf []byte, d *gossip.HealthDigest) []byte {
	buf = appendString(buf, string(d.Node))
	for _, v := range healthCounters(d) {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, zigzag(int64(d.BufferLen)))
	buf = binary.AppendUvarint(buf, zigzag(int64(d.BufferCap)))
	buf = binary.AppendUvarint(buf, d.DeliverHops.Count)
	buf = binary.AppendUvarint(buf, d.DeliverHops.Sum)
	buf = append(buf, nonZeroBuckets(d))
	for i, b := range d.DeliverHops.Buckets {
		if b != 0 {
			buf = append(buf, byte(i))
			buf = binary.AppendUvarint(buf, b)
		}
	}
	return buf
}

// nonZeroBuckets counts the histogram buckets a digest puts on the wire.
func nonZeroBuckets(d *gossip.HealthDigest) byte {
	var nb byte
	for _, b := range d.DeliverHops.Buckets {
		if b != 0 {
			nb++
		}
	}
	return nb
}

// appendHealthFixed writes one v4/v5 health digest: the fields of
// appendHealthVarint as u64 counters and bucket values and i32 buffer
// values.
//
//gossip:hotpath
func appendHealthFixed(buf []byte, d *gossip.HealthDigest) []byte {
	buf = appendString(buf, string(d.Node))
	buf = binary.BigEndian.AppendUint64(buf, d.Round)
	buf = binary.BigEndian.AppendUint64(buf, d.WallMillis)
	buf = binary.BigEndian.AppendUint64(buf, d.Published)
	buf = binary.BigEndian.AppendUint64(buf, d.Delivered)
	buf = binary.BigEndian.AppendUint64(buf, d.DroppedCapacity)
	buf = binary.BigEndian.AppendUint64(buf, d.DroppedExpired)
	buf = binary.BigEndian.AppendUint64(buf, d.MessagesSent)
	buf = binary.BigEndian.AppendUint64(buf, d.MessagesReceived)
	buf = binary.BigEndian.AppendUint64(buf, d.BytesSent)
	buf = binary.BigEndian.AppendUint64(buf, d.BytesReceived)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(d.BufferLen)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(d.BufferCap)))
	buf = binary.BigEndian.AppendUint64(buf, d.DeliverHops.Count)
	buf = binary.BigEndian.AppendUint64(buf, d.DeliverHops.Sum)
	buf = append(buf, nonZeroBuckets(d))
	for i, b := range d.DeliverHops.Buckets {
		if b == 0 {
			continue
		}
		buf = append(buf, byte(i))
		buf = binary.BigEndian.AppendUint64(buf, b)
	}
	return buf
}

// controlPreSize returns the exact wire size of the leading control
// fields written by appendControlPre.
func controlPreSize(version byte, m *gossip.Message) int {
	n := 2 + len(m.From) + 8
	if m.Group != "" {
		n += 2 + len(m.Group)
	}
	if m.Adaptive {
		n += 8 + 4
	}
	n += 2
	for _, e := range m.KMin {
		n += 2 + len(e.Node) + 4
	}
	for _, ids := range [2][]gossip.EventID{m.Digest, m.Request} {
		if version >= codecVersion {
			n += idColumnsSize(ids)
			continue
		}
		n += 2
		for _, id := range ids {
			n += 2 + len(id.Origin) + 8
		}
	}
	n += 2 + len(m.Probe) + 8
	n += 2
	for _, u := range m.Updates {
		n += 2 + len(u.Node) + 1 + 8
	}
	return n
}

// controlPostSize returns the exact wire size of the trailing control
// fields written by appendControlPost.
func controlPostSize(version byte, m *gossip.Message) int {
	n := 2
	for _, s := range m.Subs {
		n += 2 + len(s)
	}
	n += 2
	for _, s := range m.Unsubs {
		n += 2 + len(s)
	}
	n += 2
	for i := range m.Health {
		n += healthDigestWireSize(version, &m.Health[i])
	}
	return n
}

func healthDigestWireSize(version byte, d *gossip.HealthDigest) int {
	if version < codecVersion {
		// node + 10 counters + bufferLen/Cap + hist count/sum + bucket
		// count byte + (index, value) per bucket.
		return 2 + len(d.Node) + 10*8 + 4 + 4 + 8 + 8 + 1 + 9*int(nonZeroBuckets(d))
	}
	n := 2 + len(d.Node)
	for _, v := range healthCounters(d) {
		n += uvarintLen(v)
	}
	n += uvarintLen(zigzag(int64(d.BufferLen))) + uvarintLen(zigzag(int64(d.BufferCap)))
	n += uvarintLen(d.DeliverHops.Count) + uvarintLen(d.DeliverHops.Sum) + 1
	for _, b := range d.DeliverHops.Buckets {
		if b != 0 {
			n += 1 + uvarintLen(b)
		}
	}
	return n
}

// reader is the bounds-checked cursor every decode path shares.
type reader struct {
	data []byte
	off  int
}

func (r *reader) need(n int) error {
	if n < 0 || r.off+n > len(r.data) {
		return ErrTruncated
	}
	return nil
}

func (r *reader) u8() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

// uvarint reads one unsigned varint; truncated and over-long (>10 byte)
// encodings error.
func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n == 0 {
		return 0, ErrTruncated
	}
	if n < 0 {
		return 0, fmt.Errorf("%w: varint overflow", ErrTooLarge)
	}
	r.off += n
	return v, nil
}

// str reads a u16-length-prefixed identifier: a fresh string for an
// owning decode (sc == nil), an interned one for a scratch decode.
func (r *reader) str(maxLen int, sc *decodeScratch) (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if int(n) > maxLen {
		return "", fmt.Errorf("%w: id %d bytes", ErrTooLarge, n)
	}
	if err := r.need(int(n)); err != nil {
		return "", err
	}
	s := sc.intern(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// decodeControlPre parses the leading control fields of a frame of the
// given version into m (the counterpart of appendControlPre; the frame
// header is already consumed and its flags applied to m). Lists are
// appended to m's (empty, possibly scratch-backed) slices.
func (c Codec) decodeControlPre(r *reader, m *gossip.Message, version, flags byte, sc *decodeScratch) error {
	from, err := r.str(c.MaxIDLen, sc)
	if err != nil {
		return err
	}
	m.From = gossip.NodeID(from)
	if flags&flagGroup != 0 {
		group, err := r.str(c.MaxIDLen, sc)
		if err != nil {
			return err
		}
		if group == "" {
			return fmt.Errorf("transport: empty group tag with group flag set")
		}
		m.Group = group
	}
	if m.Round, err = r.u64(); err != nil {
		return err
	}
	if m.Adaptive {
		if m.SamplePeriod, err = r.u64(); err != nil {
			return err
		}
		mb, err := r.u32()
		if err != nil {
			return err
		}
		m.MinBuff = int(int32(mb))
	}
	nk, err := r.u16()
	if err != nil {
		return err
	}
	if nk > 0 {
		// Preallocation capped by what the remaining input could hold
		// (≥6 bytes per entry), as for the lists below.
		capN := int(nk)
		if maxN := (len(r.data) - r.off) / 6; capN > maxN {
			capN = maxN
		}
		m.KMin = slices.Grow(m.KMin, capN)
		for i := 0; i < int(nk); i++ {
			node, err := r.str(c.MaxIDLen, sc)
			if err != nil {
				return err
			}
			cp, err := r.u32()
			if err != nil {
				return err
			}
			m.KMin = append(m.KMin, gossip.BuffCap{Node: gossip.NodeID(node), Cap: int(int32(cp))})
		}
	}
	for _, dst := range []*[]gossip.EventID{&m.Digest, &m.Request} {
		if version >= codecVersion {
			if *dst, err = c.readIDColumns(r, *dst, sc); err != nil {
				return err
			}
			continue
		}
		nd, err := r.u16()
		if err != nil {
			return err
		}
		if nd > 0 {
			// Cap the preallocation by what the remaining input could
			// possibly hold (≥10 bytes per id), so a spoofed count in a
			// tiny datagram cannot force a large allocation.
			capN := int(nd)
			if maxN := (len(r.data) - r.off) / 10; capN > maxN {
				capN = maxN
			}
			ids := slices.Grow(*dst, capN)
			for i := 0; i < int(nd); i++ {
				origin, err := r.str(c.MaxIDLen, sc)
				if err != nil {
					return err
				}
				seq, err := r.u64()
				if err != nil {
					return err
				}
				ids = append(ids, gossip.EventID{Origin: gossip.NodeID(origin), Seq: seq})
			}
			*dst = ids
		}
	}
	probe, err := r.str(c.MaxIDLen, sc)
	if err != nil {
		return err
	}
	m.Probe = gossip.NodeID(probe)
	if m.ProbeSeq, err = r.u64(); err != nil {
		return err
	}
	nu, err := r.u16()
	if err != nil {
		return err
	}
	if nu > 0 {
		// Preallocation capped by what the remaining input could hold
		// (≥11 bytes per update), as for the digest lists above.
		capN := int(nu)
		if maxN := (len(r.data) - r.off) / 11; capN > maxN {
			capN = maxN
		}
		m.Updates = slices.Grow(m.Updates, capN)
		for i := 0; i < int(nu); i++ {
			node, err := r.str(c.MaxIDLen, sc)
			if err != nil {
				return err
			}
			status, err := r.u8()
			if err != nil {
				return err
			}
			if gossip.MemberStatus(status) > gossip.MemberConfirmed {
				return fmt.Errorf("transport: unknown member status %d", status)
			}
			inc, err := r.u64()
			if err != nil {
				return err
			}
			m.Updates = append(m.Updates, gossip.MemberUpdate{
				Node:        gossip.NodeID(node),
				Status:      gossip.MemberStatus(status),
				Incarnation: inc,
			})
		}
	}
	return nil
}

// decodeControlPost parses the trailing control fields (membership and,
// for wire v4+, the health-digest section) into m.
func (c Codec) decodeControlPost(r *reader, m *gossip.Message, version byte, sc *decodeScratch) error {
	for _, dst := range []*[]gossip.NodeID{&m.Subs, &m.Unsubs} {
		n, err := r.u16()
		if err != nil {
			return err
		}
		for i := 0; i < int(n); i++ {
			s, err := r.str(c.MaxIDLen, sc)
			if err != nil {
				return err
			}
			*dst = append(*dst, gossip.NodeID(s))
		}
	}
	if version >= wireV4 {
		var err error
		if m.Health, err = c.decodeHealth(r, m.Health, version, sc); err != nil {
			return err
		}
	}
	return nil
}

// decodeHealth parses the health-digest section (wire v4+), appending
// to out, and enforces the canonical sparse-histogram form so a decoded
// message re-encodes to identical bytes. From v6 on the counters and
// bucket values are uvarints and the buffer values zigzag varints that
// must fit an int32.
func (c Codec) decodeHealth(r *reader, out []gossip.HealthDigest, version byte, sc *decodeScratch) ([]gossip.HealthDigest, error) {
	nh, err := r.u16()
	if err != nil {
		return out, err
	}
	if nh == 0 {
		return out, nil
	}
	varint := version >= codecVersion
	// Preallocation capped by what the remaining input could hold (the
	// smallest digest is 107 bytes fixed-width, 17 in varints), as for
	// the id lists.
	minSize := 107
	if varint {
		minSize = 17
	}
	out = slices.Grow(out, min(int(nh), (len(r.data)-r.off)/minSize))
	for i := 0; i < int(nh); i++ {
		var d gossip.HealthDigest
		node, err := r.str(c.MaxIDLen, sc)
		if err != nil {
			return out, err
		}
		d.Node = gossip.NodeID(node)
		for _, dst := range []*uint64{
			&d.Round, &d.WallMillis,
			&d.Published, &d.Delivered, &d.DroppedCapacity, &d.DroppedExpired,
			&d.MessagesSent, &d.MessagesReceived, &d.BytesSent, &d.BytesReceived,
		} {
			if *dst, err = r.counter(varint); err != nil {
				return out, err
			}
		}
		for _, dst := range []*int{&d.BufferLen, &d.BufferCap} {
			if *dst, err = r.bufferValue(varint); err != nil {
				return out, err
			}
		}
		if d.DeliverHops.Count, err = r.counter(varint); err != nil {
			return out, err
		}
		if d.DeliverHops.Sum, err = r.counter(varint); err != nil {
			return out, err
		}
		nb, err := r.u8()
		if err != nil {
			return out, err
		}
		if int(nb) > len(d.DeliverHops.Buckets) {
			return out, fmt.Errorf("%w: %d histogram buckets", ErrTooLarge, nb)
		}
		last := -1
		for j := 0; j < int(nb); j++ {
			idx, err := r.u8()
			if err != nil {
				return out, err
			}
			if int(idx) >= len(d.DeliverHops.Buckets) || int(idx) <= last {
				return out, fmt.Errorf("transport: bad histogram bucket index %d", idx)
			}
			val, err := r.counter(varint)
			if err != nil {
				return out, err
			}
			if val == 0 {
				return out, fmt.Errorf("transport: zero histogram bucket encoded")
			}
			d.DeliverHops.Buckets[idx] = val
			last = int(idx)
		}
		out = append(out, d)
	}
	return out, nil
}

// counter reads a health counter: a uvarint from wire v6 on, a u64
// before.
func (r *reader) counter(varint bool) (uint64, error) {
	if varint {
		return r.uvarint()
	}
	return r.u64()
}

// bufferValue reads a health buffer value: an i32 before wire v6, a
// zigzag uvarint from v6 on, rejected outside the int32 range the i32
// held.
func (r *reader) bufferValue(varint bool) (int, error) {
	if !varint {
		v, err := r.u32()
		return int(int32(v)), err
	}
	z, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	v := unzigzag(z)
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("%w: health buffer value %d", ErrTooLarge, v)
	}
	return int(v), nil
}
