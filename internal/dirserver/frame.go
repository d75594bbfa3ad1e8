package dirserver

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/plist"
)

// A reply crosses the wire as one frame (DESIGN.md §6):
//
//	frame   = version (1 byte) | length (4, big-endian) | body | CRC-32C (4, big-endian)
//	body    = gen | serve_us | queue_us          varints
//	          err | trace                        uvarint-length-prefixed bytes
//	          count                              uvarint
//	          count × (uvarint length | record)  plist.AppendRecord encodings
//
// length counts the body; the CRC covers everything before it. trace is
// the server's span tree as JSON, empty unless the request carried a
// trace ID. The records are the result entries in key order.
const replyVersion byte = 1

const (
	frameHead    = 5 // version and body length
	frameTrailer = 4 // CRC-32C
	// keepReplyBytes caps the reply buffer a connection keeps between
	// replies, on either end: a rare huge answer does not pin its
	// buffer for the connection's life.
	keepReplyBytes = 256 << 10
	// minRecordBytes is the smallest length-prefixed record that carries
	// an entry; it bounds a frame's record count by its body length.
	minRecordBytes = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrGarbled marks a reply refused on arrival: its checksum fails, a
// length runs past the bytes that arrived, its version is not this
// client's, or a record is not an entry of the client's schema in key
// order. A garbled reply is a transport failure, retried like one, so
// callers see it wrapped in ErrUnavailable.
var ErrGarbled = errors.New("dirserver: garbled reply")

// VersionError is the refusal of a reply whose first byte is not this
// client's frame version — an older server's JSON reply among them. It
// is an ErrGarbled.
type VersionError struct {
	Got byte // the reply's first byte
}

// Error names the version the reply carried and the one the client
// reads.
func (e *VersionError) Error() string {
	if e.Got == '{' {
		return fmt.Sprintf("dirserver: reply is JSON, not a version %d frame: the server speaks an older protocol", replyVersion)
	}
	return fmt.Sprintf("dirserver: reply frame version %d, want %d", e.Got, replyVersion)
}

// Is makes every VersionError match ErrGarbled.
func (e *VersionError) Is(target error) bool { return target == ErrGarbled }

func garbled(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrGarbled, fmt.Sprintf(format, args...))
}

// appendReply encodes res and entries as one frame over b's storage. It
// returns the frame and, within it, the records section the flight
// recorder hashes. Encoding allocates nothing once b has grown to the
// reply's size, except for a trace's JSON; a span tree that does not
// marshal turns the reply into an error reply saying so.
func appendReply(b []byte, res *response, entries []*model.Entry) (frame, recs []byte) {
	var trace []byte
	if res.Trace != nil {
		var err error
		if trace, err = json.Marshal(res.Trace); err != nil {
			return appendReply(b, &response{Gen: res.Gen, Err: "dirserver: encoding the span tree: " + err.Error()}, nil)
		}
	}
	b = append(b[:0], replyVersion, 0, 0, 0, 0)
	b = binary.AppendVarint(b, res.Gen)
	b = binary.AppendVarint(b, res.ServeUS)
	b = binary.AppendVarint(b, res.QueueUS)
	b = binary.AppendUvarint(b, uint64(len(res.Err)))
	b = append(b, res.Err...)
	b = binary.AppendUvarint(b, uint64(len(trace)))
	b = append(b, trace...)
	b = binary.AppendUvarint(b, uint64(len(entries)))
	start := len(b)
	for _, e := range entries {
		at := len(b)
		b = plist.AppendRecord(b, plist.FromEntry(e))
		var n [binary.MaxVarintLen64]byte
		b = slices.Insert(b, at, n[:binary.PutUvarint(n[:], uint64(len(b)-at))]...)
	}
	end := len(b)
	binary.BigEndian.PutUint32(b[1:frameHead], uint32(end-frameHead))
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	return b, b[start:end]
}

// reply is one decoded reply frame: its header, and its entries or its
// records, each checked (readReply).
type reply struct {
	response
	entries []*model.Entry
	recs    []*plist.Record
}

// readReply reads one reply frame from br into buf's storage, checks
// it and decodes it against schema, and returns the reply with the
// buffer for reuse. With records set the reply carries its records over
// a private copy of the frame's bytes, ready to be appended to a list
// as they are; otherwise it carries materialized entries, which share
// nothing with buf. Every error is an ErrGarbled, except a transport
// error and io.EOF before the first byte (a connection closed between
// requests).
func readReply(br *bufio.Reader, buf []byte, schema *model.Schema, records bool) (reply, []byte, error) {
	var rep reply
	v, err := br.ReadByte()
	if err != nil {
		return rep, buf, err
	}
	if v != replyVersion {
		return rep, buf, &VersionError{Got: v}
	}
	buf, err = readN(br, append(buf[:0], v), frameHead-1)
	if err != nil {
		return rep, buf, err
	}
	buf, err = readN(br, buf, int(binary.BigEndian.Uint32(buf[1:frameHead]))+frameTrailer)
	if err != nil {
		return rep, buf, err
	}
	end := len(buf) - frameTrailer
	if crc32.Checksum(buf[:end], castagnoli) != binary.BigEndian.Uint32(buf[end:]) {
		return rep, buf, garbled("checksum mismatch")
	}
	body := buf[frameHead:end]
	if records {
		body = slices.Clone(body)
	}
	err = rep.decode(body, schema, records)
	return rep, buf, err
}

// readN appends n bytes from br to buf. The buffer grows with the bytes
// that arrive, never by n at once, so a hostile length costs at most
// about twice what was actually sent.
func readN(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	for n > 0 {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n, max(len(buf), 4096)))
		}
		m, err := io.ReadFull(br, buf[len(buf):len(buf)+min(n, cap(buf)-len(buf))])
		buf, n = buf[:len(buf)+m], n-m
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return buf, garbled("frame cut %d bytes short", n)
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// decode parses a checksummed frame body into rep. A record must carry
// an entry keyed by its own DN, typed as schema types it (what parsing
// it as LDIF against schema enforced), and keys must strictly ascend.
func (rep *reply) decode(body []byte, schema *model.Schema, records bool) error {
	r := frameReader{b: body}
	rep.Gen, rep.ServeUS, rep.QueueUS = r.varint(), r.varint(), r.varint()
	rep.Err = string(r.bytes())
	trace := r.bytes()
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)/minRecordBytes) {
		return garbled("header")
	}
	if len(trace) > 0 {
		rep.Trace = new(obs.Span)
		if err := json.Unmarshal(trace, rep.Trace); err != nil {
			return garbled("trace: %v", err)
		}
	}
	if records {
		rep.recs = make([]*plist.Record, 0, n)
	} else {
		rep.entries = make([]*model.Entry, 0, n)
	}
	prev := ""
	for i := range int(n) {
		b := r.bytes()
		if r.bad {
			return garbled("record %d length", i)
		}
		rec, err := plist.DecodeRecord(b)
		if err != nil {
			return garbled("record %d: %v", i, err)
		}
		if i > 0 && rec.Key <= prev {
			return garbled("record %d: key %q does not ascend from %q", i, rec.Key, prev)
		}
		prev = rec.Key
		if err := rec.CheckTypes(schema); err != nil {
			return garbled("record %d: %v", i, err)
		}
		if !rec.HasEntry() {
			return garbled("record %d: %v", i, plist.ErrNoEntry)
		}
		if records {
			rep.recs = append(rep.recs, rec)
		} else {
			e, _ := rec.Materialize() // the record has an entry: cannot fail
			rep.entries = append(rep.entries, e)
		}
		if dn := rec.DN(); dn.Key() != rec.Key {
			return garbled("record %d: key %q is not the key of %s", i, rec.Key, dn)
		}
	}
	if len(r.b) != 0 {
		return garbled("%d bytes after the records", len(r.b))
	}
	return nil
}

// frameReader reads a frame body's fields; a field that runs past the
// body sets bad and reads as zero.
type frameReader struct {
	b   []byte
	bad bool
}

func (r *frameReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *frameReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes reads a length-prefixed run, aliasing the body.
func (r *frameReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.bad, r.b = true, nil
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}
