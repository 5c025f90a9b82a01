package transport

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"adaptivegossip/internal/gossip"
)

// Columnar id runs, shared by the event section (wire v5+, events.go)
// and the digest/request id lists (wire v6+). A list of rows that carry
// event ids is written as runs of consecutive same-origin rows, so each
// origin is written once per run while the list order is kept exactly
// (decode must reproduce it: the simulator's bit-identical replays and
// the round-trip tests depend on it). Each run starts
//
//	origin  uvarint len + bytes
//	runLen  uvarint, >= 1
//	seq     first value, then runLen-1 zigzag deltas
//
// An event run continues with its remaining columns (events.go); an id
// list is just a uvarint count followed by such runs.

// uvarintLen returns the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag maps a signed delta onto the unsigned varint space so small
// negative deltas stay small on the wire.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// eventRowID and idRowID read a row's id for nextRun.
func eventRowID(e *gossip.Event) gossip.EventID { return e.ID }
func idRowID(id *gossip.EventID) gossip.EventID { return *id }

// nextRun returns the end index (exclusive) of the run of consecutive
// rows sharing rows[start]'s origin. start must be a valid index. It is
// small enough to inline, which turns the id accessor into a direct
// field read.
//
//gossip:hotpath
func nextRun[T any](rows []T, start int, id func(*T) gossip.EventID) int {
	origin := id(&rows[start]).Origin
	end := start + 1
	for end < len(rows) && id(&rows[end]).Origin == origin {
		end++
	}
	return end
}

// appendRunHead writes the head of a run of n ids starting with first:
// origin, run length and first seq. The run's later seqs follow as
// seqDelta values.
//
//gossip:hotpath
func appendRunHead(buf []byte, first gossip.EventID, n int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(first.Origin)))
	buf = append(buf, first.Origin...)
	buf = binary.AppendUvarint(buf, uint64(n))
	return binary.AppendUvarint(buf, first.Seq)
}

// runHeadSize returns the bytes appendRunHead writes.
func runHeadSize(first gossip.EventID, n int) int {
	return uvarintLen(uint64(len(first.Origin))) + len(first.Origin) +
		uvarintLen(uint64(n)) + uvarintLen(first.Seq)
}

// seqDelta is the seq-column value of seq following prev in a run.
func seqDelta(prev, seq uint64) uint64 { return zigzag(int64(seq - prev)) }

// readRunHead reads a run's origin and length. left is the number of
// rows the list still owes, minRow the fewest bytes one row takes: a
// run longer than the remaining input could hold fails as truncated
// before anything is appended for it.
func (c Codec) readRunHead(r *reader, left uint64, minRow int, sc *decodeScratch) (gossip.NodeID, int, error) {
	olen, err := r.uvarint()
	if err != nil {
		return "", 0, err
	}
	if olen > uint64(c.MaxIDLen) {
		return "", 0, fmt.Errorf("%w: origin id %d bytes", ErrTooLarge, olen)
	}
	if err := r.need(int(olen)); err != nil {
		return "", 0, err
	}
	origin := gossip.NodeID(sc.intern(r.data[r.off : r.off+int(olen)]))
	r.off += int(olen)
	runLen, err := r.uvarint()
	if err != nil {
		return "", 0, err
	}
	if runLen == 0 {
		return "", 0, fmt.Errorf("transport: empty id run")
	}
	if runLen > left {
		return "", 0, fmt.Errorf("%w: run of %d ids", ErrTooLarge, runLen)
	}
	if runLen > uint64((len(r.data)-r.off)/minRow+1) {
		return "", 0, ErrTruncated
	}
	return origin, int(runLen), nil
}

// seq reads the i-th value of a run's seq column, prev being the
// (i-1)-th.
func (r *reader) seq(i int, prev uint64) (uint64, error) {
	z, err := r.uvarint()
	if err != nil || i == 0 {
		return z, err
	}
	return prev + uint64(unzigzag(z)), nil
}

// appendIDColumns writes a wire v6 id list: uvarint count, then runs.
//
//gossip:hotpath
func appendIDColumns(buf []byte, ids []gossip.EventID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for start := 0; start < len(ids); {
		end := nextRun(ids, start, idRowID)
		buf = appendRunHead(buf, ids[start], end-start)
		for i := start + 1; i < end; i++ {
			buf = binary.AppendUvarint(buf, seqDelta(ids[i-1].Seq, ids[i].Seq))
		}
		start = end
	}
	return buf
}

// idColumnsSize returns the bytes appendIDColumns writes for ids.
func idColumnsSize(ids []gossip.EventID) int {
	n := uvarintLen(uint64(len(ids)))
	for start := 0; start < len(ids); {
		end := nextRun(ids, start, idRowID)
		n += runHeadSize(ids[start], end-start)
		for i := start + 1; i < end; i++ {
			n += uvarintLen(seqDelta(ids[i-1].Seq, ids[i].Seq))
		}
		start = end
	}
	return n
}

// readIDColumns parses a wire v6 id list, appending to dst. The count
// is bounded like the fixed-width lists' u16 count, and the
// preallocation by the remaining input (every id takes at least one
// byte).
func (c Codec) readIDColumns(r *reader, dst []gossip.EventID, sc *decodeScratch) ([]gossip.EventID, error) {
	count, err := r.uvarint()
	if err != nil {
		return dst, err
	}
	if count > maxUint16 {
		return dst, fmt.Errorf("%w: %d ids", ErrTooLarge, count)
	}
	if count == 0 {
		return dst, nil
	}
	dst = slices.Grow(dst, min(int(count), len(r.data)-r.off))
	for left := count; left > 0; {
		origin, n, err := c.readRunHead(r, left, 1, sc)
		if err != nil {
			return dst, err
		}
		var seq uint64
		for i := 0; i < n; i++ {
			if seq, err = r.seq(i, seq); err != nil {
				return dst, err
			}
			dst = append(dst, gossip.EventID{Origin: origin, Seq: seq})
		}
		left -= uint64(n)
	}
	return dst, nil
}
