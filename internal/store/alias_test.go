package store

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
)

// entriesOf drains a result into "key / entry" lines, checking that each
// record sits under the key its DN gives (Drain hands the record's key
// to the entry, so Entry.Key() would agree with anything).
func entriesOf(t *testing.T, l *plist.List) []string {
	t.Helper()
	recs, err := plist.Drain(l)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		if r.Entry == nil || r.Entry.DN().Key() != r.Key {
			t.Fatalf("record %q carries %v", r.Key, r.Entry)
		}
		out[i] = r.Key + " / " + r.Entry.String()
	}
	return out
}

// TestPoisonedReadsSameAnswers holds the store to the validity rule of
// plist.Reader.Next (a record is its reader's until the next call) the
// way the engine's test of the same name does: with plist.PoisonReads
// on, every atomic shape by every access path — master records, overlay
// records, the spool-sort-dedupe fetch — gives the entries it gives
// unpoisoned and the oracle's keys, point lookups and Instance agree,
// and the image reopens: Reopen's gate keeps keys across records.
func TestPoisonedReadsSameAnswers(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		in := buildTestInstance(t, 60)
		st, err := Build(pager.NewDisk(1024), in, Options{AttrIndex: indexed})
		if err != nil {
			t.Fatal(err)
		}
		ns, fork := mutateBoth(t, st, in)
		// Entries that match by several values reach the fetch's dedupe,
		// which compares each hit's key with the one before.
		cases := append([]string{"(dc=com ? sub ? daysOfWeek=*)", "(dc=com ? sub ? daysOfWeek>=6)", "(dc=com ? sub ? objectClass=*)"}, overlayCases...)
		answers := func() (out []string) {
			for _, c := range cases {
				q := query.MustParse(c).(*query.Atomic)
				want := fmt.Sprint(oracle(in, q))
				for _, path := range forcedPaths {
					l, err := forcePath(testEnv(ns), q, path)
					if err != nil {
						t.Fatalf("indexed=%v %s path=%s: %v", indexed, c, path, err)
					}
					if got := fmt.Sprint(keysOf(t, l)); got != want {
						t.Fatalf("indexed=%v %s path=%s:\n got %v\nwant %v", indexed, c, path, got, want)
					}
					out = append(out, entriesOf(t, l)...)
				}
			}
			live, err := ns.Instance()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range live.Entries() {
				got, err := ns.Get(e.DN())
				if err != nil || !got.Equal(e) || got.Key() != e.DN().Key() {
					t.Fatalf("Get(%s) = %v, %v; Instance holds %s", e.DN(), got, err, e)
				}
				out = append(out, e.String())
			}
			return out
		}
		want := answers()
		plist.PoisonReads(true)
		got := answers()
		man, err := ns.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		ro, err := Reopen(fork, in.Schema(), man)
		plist.PoisonReads(false)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("indexed=%v: poisoned reads change the answers", indexed)
		}
		if err != nil || ro.Count() != ns.Count() || ro.Orphans() != ns.Orphans() {
			t.Fatalf("indexed=%v: reopen under poisoned reads: %v", indexed, err)
		}
	}
}

// TestReopenChecksKeyAgainstDN: a master record filed under a key that
// is not its entry's is refused. Materializing takes the record's key
// for the entry's, so Reopen compares it with the DN itself; the record
// is the last one, so the wrong key keeps the list in order and nothing
// else objects. A record that does not decode surfaces plist.ErrCorrupt.
func TestReopenChecksKeyAgainstDN(t *testing.T) {
	st, err := Build(pager.NewDisk(pager.DefaultPageSize), buildTestInstance(t, 12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	man, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reopen(st.Disk(), st.Schema(), man); err != nil {
		t.Fatal(err)
	}
	mi := readMaster(t, st)
	body := mi.body(len(mi.offs) - 2)
	rec, err := plist.DecodeRecord(body)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(body, []byte(rec.Key)) + len(rec.Key) - 2 // last byte of the last RDN value
	body[at]++
	mi.write(t)
	if _, err := Reopen(st.Disk(), st.Schema(), man); err == nil || !strings.Contains(err.Error(), "carries the entry") {
		t.Fatalf("record under another key: %v", err)
	}
	body[at] = 0xff // now the key runs into the entry: not a record at all
	body[0] = 0xff
	mi.write(t)
	if _, err := Reopen(st.Disk(), st.Schema(), man); !errors.Is(err, plist.ErrCorrupt) {
		t.Fatalf("undecodable record: %v, want plist.ErrCorrupt", err)
	}
}
