package store

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
)

// buildTestInstance creates a small directory with the shapes of the
// paper's figures: a dc hierarchy, org units, people and QHPs.
func buildTestInstance(t testing.TB, nPeople int) *model.Instance {
	t.Helper()
	s := model.DefaultSchema()
	in := model.NewInstance(s)
	add := func(dn string, classes []string, avs ...func(*model.Entry)) {
		e, err := model.NewEntryFromDN(s, model.MustParseDN(dn))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range classes {
			e.AddClass(c)
		}
		for _, f := range avs {
			f(e)
		}
		if err := in.Add(e); err != nil {
			t.Fatalf("%s: %v", dn, err)
		}
	}
	add("dc=com", []string{"dcObject"})
	add("dc=att, dc=com", []string{"dcObject", "domain"})
	add("dc=research, dc=att, dc=com", []string{"dcObject"})
	add("dc=ibm, dc=com", []string{"dcObject"})
	add("ou=userProfiles, dc=research, dc=att, dc=com", []string{"organizationalUnit"})
	add("ou=networkPolicies, dc=research, dc=att, dc=com", []string{"organizationalUnit"})
	r := rand.New(rand.NewSource(17))
	surnames := []string{"jagadish", "lakshmanan", "milo", "srivastava", "vista"}
	for i := 0; i < nPeople; i++ {
		uid := fmt.Sprintf("u%04d", i)
		sn := surnames[r.Intn(len(surnames))]
		add(fmt.Sprintf("uid=%s, ou=userProfiles, dc=research, dc=att, dc=com", uid),
			[]string{"inetOrgPerson", "TOPSSubscriber"},
			func(e *model.Entry) {
				e.Add("surName", model.String(sn))
				e.Add("commonName", model.String("x "+sn))
			})
		nq := r.Intn(3)
		for j := 0; j < nq; j++ {
			add(fmt.Sprintf("QHPName=q%d, uid=%s, ou=userProfiles, dc=research, dc=att, dc=com", j, uid),
				[]string{"QHP"},
				func(e *model.Entry) {
					e.Add("priority", model.Int(int64(j+1)))
					if j == 0 {
						e.Add("daysOfWeek", model.Int(6))
						e.Add("daysOfWeek", model.Int(7))
					}
				})
		}
	}
	return in
}

// oracle evaluates an atomic query against the in-memory instance.
func oracle(in *model.Instance, q *query.Atomic) []string {
	var out []string
	k := q.Base.Key()
	depth := q.Base.Depth()
	in.Range(k, model.SubtreeHigh(k), func(e *model.Entry) bool {
		switch q.Scope {
		case query.ScopeBase:
			if e.Key() != k {
				return true
			}
		case query.ScopeOne:
			if model.KeyDepth(e.Key())-depth > 1 {
				return true
			}
		}
		if q.Filter.Matches(in.Schema(), e) {
			out = append(out, e.Key())
		}
		return true
	})
	return out
}

func keysOf(t *testing.T, l *plist.List) []string {
	t.Helper()
	recs, err := plist.Drain(l)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Key
		if r.Entry == nil {
			t.Fatal("result record lacks entry")
		}
		if r.Entry.Key() != r.Key {
			t.Fatal("record key does not match entry key")
		}
	}
	for i := 1; i < len(out); i++ {
		if out[i-1] >= out[i] {
			t.Fatal("result not strictly sorted by reverse-DN key")
		}
	}
	return out
}

var atomicCases = []string{
	// Index-supported equality / presence / wildcards / int ranges.
	"(dc=com ? sub ? surName=jagadish)",
	"(dc=att, dc=com ? sub ? surName=jagadish)",
	"(dc=research, dc=att, dc=com ? sub ? objectClass=QHP)",
	"(dc=com ? sub ? objectClass=organizationalUnit)",
	"(dc=com ? sub ? surName=*)",
	"(dc=com ? sub ? commonName=*jag*)",
	"(dc=com ? sub ? surName=j*)",
	"(dc=com ? sub ? surName=*a*a*)",
	"(dc=com ? sub ? priority<2)",
	"(dc=com ? sub ? priority<=2)",
	"(dc=com ? sub ? priority>1)",
	"(dc=com ? sub ? priority>=3)",
	"(dc=com ? sub ? priority=2)",
	"(dc=com ? sub ? daysOfWeek=7)",
	// Scopes.
	"(dc=com ? base ? objectClass=dcObject)",
	"(dc=com ? one ? objectClass=dcObject)",
	"(dc=att, dc=com ? one ? dc=*)",
	"(ou=userProfiles, dc=research, dc=att, dc=com ? one ? objectClass=inetOrgPerson)",
	// Root (null-dn) base.
	"( ? sub ? objectClass=dcObject)",
	// Misses.
	"(dc=org ? sub ? surName=jagadish)",
	"(dc=com ? sub ? surName=nobody)",
	"(dc=com ? sub ? priority>99)",
	"(dc=com ? base ? surName=jagadish)",
	// Scan-only shapes (approx, string order).
	"(dc=com ? sub ? surName~=JAGADISH)",
	"(dc=com ? sub ? surName>s)",
	"(dc=com ? sub ? surName<m)",
}

func TestEvalMatchesOracle(t *testing.T) {
	in := buildTestInstance(t, 60)
	for _, indexed := range []bool{true, false} {
		d := pager.NewDisk(1024)
		st, err := Build(d, in, Options{AttrIndex: indexed})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range atomicCases {
			q := query.MustParse(c).(*query.Atomic)
			want := oracle(in, q)
			l, err := st.Eval(q)
			if err != nil {
				t.Fatalf("indexed=%v %s: %v", indexed, c, err)
			}
			got := keysOf(t, l)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("indexed=%v %s:\n got %d entries\nwant %d entries", indexed, c, len(got), len(want))
			}
		}
	}
}

func TestEvalScanAlwaysAgreesWithIndex(t *testing.T) {
	in := buildTestInstance(t, 40)
	d := pager.NewDisk(1024)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range atomicCases {
		q := query.MustParse(c).(*query.Atomic)
		li, err := st.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := st.EvalScan(q)
		if err != nil {
			t.Fatal(err)
		}
		gi, gs := keysOf(t, li), keysOf(t, ls)
		if fmt.Sprint(gi) != fmt.Sprint(gs) {
			t.Errorf("%s: index and scan disagree (%d vs %d)", c, len(gi), len(gs))
		}
	}
}

func TestGet(t *testing.T) {
	in := buildTestInstance(t, 5)
	d := pager.NewDisk(1024)
	st, err := Build(d, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.Get(model.MustParseDN("dc=att, dc=com"))
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasClass("domain") {
		t.Error("wrong entry fetched")
	}
	if _, err := st.Get(model.MustParseDN("dc=nowhere")); !errors.Is(err, ErrNoEntry) {
		t.Errorf("missing entry: %v", err)
	}
}

// TestPageCountsSumToDevice: the page counts say what the whole device
// is made of. On a freshly built store — unindexed, indexed, with vector
// indexes — master list, trees and vector indexes add up to every page
// the disk holds, and so do they on a generation ApplyOps made on a
// fork, overlay included: no page is unaccounted for.
func TestPageCountsSumToDevice(t *testing.T) {
	check := func(label string, st *Store, wantOverlay bool) {
		t.Helper()
		pc, err := st.PageCounts()
		if err != nil {
			t.Fatal(err)
		}
		if sum := pc.Master + pc.DN + pc.Attr + pc.Overlay + pc.Vectors; sum != st.Disk().NumPages() {
			t.Errorf("%s: %+v sums to %d pages, the disk holds %d", label, pc, sum, st.Disk().NumPages())
		}
		if pc.Master != st.MasterPages() || pc.DN == 0 || (pc.Attr > 0) != st.Indexed() || (pc.Overlay > 0) != wantOverlay {
			t.Errorf("%s: %+v", label, pc)
		}
	}
	for _, c := range []struct {
		label string
		in    *model.Instance
		opts  Options
	}{
		{"unindexed", buildTestInstance(t, 200), Options{}},
		{"indexed", buildTestInstance(t, 200), Options{AttrIndex: true}},
		{"vectors", knnInstance(300, 5), Options{AttrIndex: true}},
	} {
		st, err := Build(pager.NewDisk(1024), c.in, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		check(c.label, st, false)
		if c.label == "vectors" {
			if pc, _ := st.PageCounts(); pc.Vectors == 0 {
				t.Errorf("vectors: no vector-index pages counted")
			}
			continue
		}
		ns, _ := mutateBoth(t, st, c.in)
		check(c.label+" after ApplyOps", ns, true)
	}
}

func TestEvalLDAP(t *testing.T) {
	in := buildTestInstance(t, 30)
	d := pager.NewDisk(1024)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.ParseLDAP("(dc=com ? sub ? (&(objectClass=QHP)(priority<=1)))")
	if err != nil {
		t.Fatal(err)
	}
	l, err := st.EvalLDAP(q)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := plist.Drain(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("expected matches")
	}
	for _, r := range recs {
		if !r.Entry.HasClass("QHP") {
			t.Error("non-QHP in result")
		}
		v, _ := r.Entry.First("priority")
		if v.Int() > 1 {
			t.Error("priority filter violated")
		}
	}
}

func TestSubScopeIsContiguousScan(t *testing.T) {
	// A sub query under a deep base must not read master pages outside
	// the subtree range (plus a constant for seek and output).
	in := buildTestInstance(t, 200)
	d := pager.NewDisk(512)
	st, err := Build(d, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustParse("(dc=ibm, dc=com ? sub ? objectClass=*)").(*query.Atomic)
	d.ResetStats()
	l, err := st.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	got := keysOf(t, l)
	if len(got) != 1 {
		t.Fatalf("ibm subtree = %d entries", len(got))
	}
	// The ibm subtree holds 1 entry; a full scan would read every master
	// page. Expect a handful of pages: btree descent + 1-2 master pages.
	if io := d.Stats().IO(); io > 15 {
		t.Errorf("tiny-subtree sub scan cost %d I/Os (master has %d pages)", io, st.MasterPages())
	}
}

func TestEvalStringConvenience(t *testing.T) {
	in := buildTestInstance(t, 5)
	d := pager.NewDisk(1024)
	st, _ := Build(d, in, Options{AttrIndex: true})
	l, err := st.EvalString("(dc=com ? sub ? objectClass=dcObject)")
	if err != nil {
		t.Fatal(err)
	}
	if l.Count() != 4 {
		t.Errorf("count = %d, want 4", l.Count())
	}
	if _, err := st.EvalString("(& (dc=com ? sub ? dc=*) (dc=com ? sub ? dc=*))"); err == nil {
		t.Error("composite accepted by EvalString")
	}
}

func TestUnknownAttributeFilter(t *testing.T) {
	in := buildTestInstance(t, 5)
	d := pager.NewDisk(1024)
	st, _ := Build(d, in, Options{AttrIndex: true})
	atom, err := filter.ParseAtom("nosuchattr=1")
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Atomic{Base: nil, Scope: query.ScopeSub, Filter: atom}
	l, err := st.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if l.Count() != 0 {
		t.Error("unknown attribute must match nothing")
	}
}
