package dirserver

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// readFrame reads one reply frame off r and decodes it against schema:
// the one way the tests that speak the raw wire read a reply. r carries
// one reply at a time, so the buffered reader never holds bytes of the
// next.
func readFrame(t *testing.T, r io.Reader, schema *model.Schema) reply {
	t.Helper()
	rep, _, err := readReply(bufio.NewReader(r), nil, schema, false)
	if err != nil {
		t.Fatalf("reading a reply frame: %v", err)
	}
	return rep
}

// frameOf encodes a reply frame, for fake servers.
func frameOf(res response, entries ...*model.Entry) []byte {
	frame, _ := appendReply(nil, &res, entries)
	return frame
}

// fakeServer answers every request line on every connection with the
// bytes answer returns, and counts the connections it accepted.
func fakeServer(t *testing.T, answer func() []byte) (addr string, accepted func() int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conns := make(chan struct{}, 64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns <- struct{}{}
			go func() {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					if _, err := conn.Write(answer()); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func() int { return len(conns) }
}

// TestJSONReplyRefusedWithVersion: a server answering in the line
// protocol's old JSON form gets a typed version error that names the
// frame version, through ErrUnavailable, and the connection it came on
// is not pooled: the next call dials afresh.
func TestJSONReplyRefusedWithVersion(t *testing.T) {
	addr, accepted := fakeServer(t, func() []byte {
		return []byte(`{"entries":["dn: dc=com\nobjectClass: dcObject"],"gen":1}` + "\n")
	})
	cl := NewClient(model.DefaultSchema(), ClientConfig{MaxRetries: -1})
	defer cl.Close()
	for i := 0; i < 2; i++ {
		_, err := cl.Call(context.Background(), addr, "query", "(dc=com ? base ? objectClass=*)")
		var verr *VersionError
		if !errors.Is(err, ErrUnavailable) || !errors.Is(err, ErrGarbled) || !errors.As(err, &verr) || verr.Got != '{' {
			t.Fatalf("call %d: %v, want ErrUnavailable over a *VersionError", i, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("version %d", replyVersion)) {
			t.Fatalf("call %d: %q does not name the frame version", i, err)
		}
	}
	if st := cl.Stats(); st.Dials != 2 || st.Reuses != 0 {
		t.Fatalf("dials %d, reuses %d: a refused connection was pooled", st.Dials, st.Reuses)
	}
	if n := accepted(); n != 2 {
		t.Fatalf("server accepted %d connections, want 2", n)
	}
}

// TestMalformedFrameRefused sends well-formed, checksummed frames whose
// records break a rule the LDIF reply enforced: each is refused as
// garbled, retried, and ends as ErrUnavailable.
func TestMalformedFrameRefused(t *testing.T) {
	in := workload.PaperInstance()
	entries := in.Entries()
	a, b := entries[0], entries[1]
	if a.Key() >= b.Key() {
		a, b = b, a
	}
	noSLA := model.NewSchema()
	for _, attr := range in.Schema().Attrs() {
		if typ, _ := in.Schema().AttrType(attr); !strings.HasPrefix(attr, "sla") {
			noSLA.MustDefineAttr(attr, typ)
		}
	}
	sla := entryWith(t, in, func(e *model.Entry) bool { return len(e.Values("SLAPolicyName")) > 0 })
	prio := entryWith(t, in, func(e *model.Entry) bool { return len(e.Values("SLARulePriority")) > 0 })
	stringPrio := model.NewEntry(prio.DN()).AddClass("SLAPolicyRules").Add("SLARulePriority", model.String("high"))
	for _, tc := range []struct {
		name, want string // want: the refusal's reason
		schema     *model.Schema
		frame      []byte
	}{
		{"key is not its DN's", "is not the key of", in.Schema(), frameOf(response{}, model.EntryOf(a.DN(), b.Key(), a.Pairs()))},
		{"keys descend", "does not ascend", in.Schema(), frameOf(response{}, b, a)},
		{"key repeats", "does not ascend", in.Schema(), frameOf(response{}, a, a)},
		{"unknown attribute", "unknown attribute", noSLA, frameOf(response{}, sla)},
		{"kind disagrees with type", "value kind string", in.Schema(), frameOf(response{}, stringPrio)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, accepted := fakeServer(t, func() []byte { return tc.frame })
			cl := NewClient(tc.schema, ClientConfig{MaxRetries: 1, BackoffBase: time.Millisecond})
			defer cl.Close()
			_, err := cl.Call(context.Background(), addr, "query", "(dc=com ? sub ? objectClass=*)")
			if !errors.Is(err, ErrUnavailable) || !errors.Is(err, ErrGarbled) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%v, want ErrUnavailable over ErrGarbled: %s", err, tc.want)
			}
			if st := cl.Stats(); st.Retries != 1 || accepted() != 2 {
				t.Fatalf("%d retries over %d connections, want 1 over 2", st.Retries, accepted())
			}
		})
	}
	// The same entries in order are accepted: the cases above differ
	// from a good reply only in the rule each breaks.
	addr, _ := fakeServer(t, func() []byte { return frameOf(response{Gen: 7}, a, b) })
	cl := NewClient(in.Schema(), ClientConfig{})
	defer cl.Close()
	got, gen, err := cl.CallWithGen(context.Background(), addr, "query", "(dc=com ? sub ? objectClass=*)")
	if err != nil || gen != 7 || len(got) != 2 || !got[0].Equal(a) || !got[1].Equal(b) {
		t.Fatalf("good frame: %v at generation %d, %v", got, gen, err)
	}
}

func entryWith(t *testing.T, in *model.Instance, ok func(*model.Entry) bool) *model.Entry {
	for _, e := range in.Entries() {
		if ok(e) {
			return e
		}
	}
	t.Fatal("no such entry")
	return nil
}

// FuzzReply feeds arbitrary bytes to the client's reply reader, as
// they are and sealed as a frame's body (version, length and CRC made
// right, so that mutations reach the header and records behind the
// checksum). It returns a reply or an ErrGarbled (io.EOF for no bytes
// at all), never panics, and allocates at most a small multiple of the
// input: no length or count read off the wire is trusted with an
// allocation. A reply it accepts holds entries typed by the schema,
// keyed by their DNs, in strictly ascending key order; encoding them
// again gives a frame the reader accepts with the same entries, and the
// records path refuses exactly what the entries path refuses.
func FuzzReply(f *testing.F) {
	in := workload.PaperInstance()
	schema := in.Schema()
	valid := frameOf(response{Gen: 3, ServeUS: 40, QueueUS: 2}, in.Entries()[:4]...)
	garbled := bytes.Clone(valid)
	for i := range garbled {
		garbled[i] ^= 0x5a
	}
	f.Add(valid)
	f.Add(valid[frameHead : len(valid)-frameTrailer]) // the body, sealed again below
	f.Add(valid[:len(valid)/2])
	f.Add(garbled)
	f.Add([]byte(`{"entries":["dn: dc=com\nobjectClass: dcObject"],"gen":1}` + "\n"))
	f.Add([]byte{replyVersion, 0x80, 0, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		sealed := binary.BigEndian.AppendUint32([]byte{replyVersion}, uint32(len(b)))
		sealed = append(sealed, b...)
		sealed = binary.BigEndian.AppendUint32(sealed, crc32.Checksum(sealed, castagnoli))
		checkReply(t, schema, b)
		checkReply(t, schema, sealed)
	})
}

// checkReply holds the reply reader to FuzzReply's rules on b.
func checkReply(t *testing.T, schema *model.Schema, b []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, _, err := readReply(bufio.NewReader(bytes.NewReader(b)), nil, schema, false)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(b))+64<<10 {
		t.Fatalf("reading %d bytes allocated %d", len(b), alloc)
	}
	recs, _, rerr := readReply(bufio.NewReader(bytes.NewReader(b)), nil, schema, true)
	if (err == nil) != (rerr == nil) || len(recs.recs) != len(rep.entries) {
		t.Fatalf("entries path: %v; records path: %d records, %v", err, len(recs.recs), rerr)
	}
	if err != nil {
		if !errors.Is(err, ErrGarbled) && !(len(b) == 0 && err == io.EOF) {
			t.Fatalf("untyped error: %v", err)
		}
		return
	}
	for i, e := range rep.entries {
		if e.DN().Key() != e.Key() || i > 0 && e.Key() <= rep.entries[i-1].Key() {
			t.Fatalf("entry %d: %s under key %q accepted", i, e.DN(), e.Key())
		}
		for _, av := range e.Pairs() {
			if typ, ok := schema.AttrType(av.Attr); !ok || model.TypeKind(typ) != av.Value.Kind() {
				t.Fatalf("entry %d: %s: %v accepted", i, av.Attr, av.Value)
			}
		}
	}
	again, _, err := readReply(bufio.NewReader(bytes.NewReader(frameOf(rep.response, rep.entries...))), nil, schema, false)
	if err != nil || again.Gen != rep.Gen || again.Err != rep.Err || len(again.entries) != len(rep.entries) {
		t.Fatalf("re-encoded reply: %v", err)
	}
	for i := range rep.entries {
		if !again.entries[i].Equal(rep.entries[i]) {
			t.Fatalf("entry %d: %s, re-encoded %s", i, rep.entries[i], again.entries[i])
		}
	}
}

// policyReplies answers the policy workload's six query templates per
// domain (over a QoS directory as dirserve -gen qos -n 2000 -seed 1
// builds it) and keeps the first 60 answers of 20 to 40 entries: the
// replies a QoS decision point reads.
func policyReplies(b *testing.B) [][]*model.Entry {
	dir, err := core.Open(workload.GenQoS(workload.QoSConfig{Domains: 41, PoliciesPerDomain: 50, Seed: 1}), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var out [][]*model.Entry
	for d := 0; len(out) < 60 && d < 41; d++ {
		dom := fmt.Sprintf("dc=dom%d, dc=att, dc=com", d)
		policies := fmt.Sprintf("(%s ? sub ? objectClass=SLAPolicyRules)", dom)
		qs := []string{
			policies,
			fmt.Sprintf("(%s ? sub ? objectClass=trafficProfile)", dom),
			fmt.Sprintf("(%s ? sub ? objectClass=policyValidityPeriod)", dom),
			fmt.Sprintf("(%s ? sub ? objectClass=SLADSAction)", dom),
			fmt.Sprintf("(vd %s (%s ? sub ? DSPermission=Deny) SLADSActRef)", policies, dom),
			fmt.Sprintf("(g %s count(SLATPRef) >= 2)", policies),
		}
		for _, q := range qs {
			res, err := dir.Search(q)
			if err != nil {
				b.Fatal(err)
			}
			if n := len(res.Entries); n >= 20 && n <= 40 && len(out) < 60 {
				out = append(out, res.Entries)
			}
		}
	}
	if len(out) < 60 {
		b.Fatalf("%d replies of 20 to 40 entries", len(out))
	}
	return out
}

// BenchmarkReplyCodec encodes ("encode") and encodes then decodes
// ("roundtrip") policy replies of about 30 entries, one reply per op,
// through the reply frame: the server's and the client's share of the
// wire time. Both ends reuse their buffers, as a connection does.
func BenchmarkReplyCodec(b *testing.B) {
	replies := policyReplies(b)
	schema := model.DefaultSchema()
	res := response{Gen: 1, ServeUS: 30, QueueUS: 5}
	var buf []byte
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = appendReply(buf, &res, replies[i%len(replies)])
		}
	})
	b.Run("roundtrip", func(b *testing.B) {
		var in []byte
		src := bytes.NewReader(nil)
		br := bufio.NewReader(src)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			entries := replies[i%len(replies)]
			buf, _ = appendReply(buf, &res, entries)
			src.Reset(buf)
			br.Reset(src)
			var rep reply
			var err error
			if rep, in, err = readReply(br, in, schema, false); err != nil || len(rep.entries) != len(entries) {
				b.Fatalf("%d of %d entries: %v", len(rep.entries), len(entries), err)
			}
		}
	})
}
