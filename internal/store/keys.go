package store

import (
	"encoding/binary"

	"repro/internal/model"
)

// Composite index keys have the form
//
//	enc(attr) enc(ordval) revkey
//
// where enc is an order-preserving, prefix-free byte encoding (0x00 is
// escaped as 0x00 0xFF; components terminate with 0x00 0x01) and ordval
// is an order-preserving encoding of the attribute value: big-endian
// sign-flipped for ints, raw bytes for strings, the reverse-DN key for
// DN values. Scanning the B+tree over a composite prefix therefore
// yields hits ordered by reverse-DN key — exactly the order the
// evaluation algorithms need.

func encBytes[S string | []byte](dst []byte, b S) []byte {
	for i := 0; i < len(b); i++ {
		if c := b[i]; c == 0x00 {
			dst = append(dst, 0x00, 0xff)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x01)
}

// ordInt encodes an int64 so that byte order equals numeric order.
func ordInt(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v)^(1<<63))
	return b[:]
}

// encValue appends enc(ordval) of v to dst.
func encValue(dst []byte, v model.Value) []byte {
	switch v.Kind() {
	case model.KindInt:
		return encBytes(dst, ordInt(v.Int()))
	case model.KindDN:
		return encBytes(dst, v.DN().Key())
	default:
		return encBytes(dst, v.Str())
	}
}

// attrPrefix returns the composite-key prefix covering every value of
// attr.
func attrPrefix(attr string) []byte {
	return encBytes(nil, attr)
}

// valuePrefix returns the composite-key prefix covering one (attr,
// value) pair across all entries.
func valuePrefix(attr string, ordVal []byte) []byte {
	return encBytes(attrPrefix(attr), ordVal)
}

// compositeKey appends to dst the full index key for one (attr, value)
// pair of the entry with the given reverse-DN key.
func compositeKey(dst []byte, attr string, v model.Value, revKey string) []byte {
	return append(encValue(encBytes(dst, attr), v), revKey...)
}

// splitRevKey extracts the reverse-DN key suffix from a composite key:
// the bytes after the second component terminator.
func splitRevKey(k []byte) string {
	seen := 0
	for i := 0; i+1 < len(k); i++ {
		if k[i] == 0x00 {
			if k[i+1] == 0x01 {
				seen++
				if seen == 2 {
					return string(k[i+2:])
				}
			}
			i++ // skip the escape/terminator second byte
		}
	}
	return ""
}

// offsetValue encodes a master-list stream offset as an index value.
func offsetValue(off int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(off))
	return b[:]
}

// decodeOffset reverses offsetValue.
func decodeOffset(b []byte) int64 {
	return int64(binary.LittleEndian.Uint64(b))
}
