package store

import (
	"testing"

	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/query"
)

// truthPostings counts the (attr, value) pairs in the instance whose
// single value satisfies the filter — the quantity the catalog
// estimates.
func truthPostings(in *model.Instance, q *query.Atomic) int64 {
	var n int64
	for _, e := range in.Entries() {
		for _, v := range e.Values(q.Filter.Attr) {
			probe := model.NewEntry(e.DN())
			probe.Add(q.Filter.Attr, v)
			if q.Filter.Matches(in.Schema(), probe) {
				n++
			}
		}
	}
	return n
}

func TestCatalogEstimatesExact(t *testing.T) {
	in := buildTestInstance(t, 80)
	d := pager.NewDisk(1024)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{
		"( ? sub ? surName=jagadish)",
		"( ? sub ? surName=*adi*)",
		"( ? sub ? priority<=1)",
		"( ? sub ? priority>2)",
		"( ? sub ? priority=2)",
		"( ? sub ? daysOfWeek=*)",
		"( ? sub ? objectClass=QHP)",
		"( ? sub ? surName=nobody)",
		"( ? sub ? priority<1)",
		"( ? sub ? priority>=1)",
	}
	for _, qs := range cases {
		q := query.MustParse(qs).(*query.Atomic)
		est, ok := st.stats.estimateHits(st, q)
		if !ok {
			t.Errorf("%s: estimate unavailable", qs)
			continue
		}
		if truth := truthPostings(in, q); est != truth {
			t.Errorf("%s: estimate %d, truth %d", qs, est, truth)
		}
	}
}

func TestPreferScanChoosesSensibly(t *testing.T) {
	in := buildTestInstance(t, 120)
	d := pager.NewDisk(1024)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	// Whole-directory presence of a universal attribute: the scan must
	// win.
	broad := query.MustParse("( ? sub ? objectClass=*)").(*query.Atomic)
	if !st.preferScan(broad, NeedAll, nil) {
		t.Error("preferScan(objectClass=*) = false; index plan would fetch every entry")
	}
	// A single rare value: the index must win.
	narrow := query.MustParse("( ? sub ? uid=u0003)").(*query.Atomic)
	if st.preferScan(narrow, NeedAll, nil) {
		t.Error("preferScan(uid=u0003) = true; point query should use the index")
	}
	// A deep base makes even broad filters scan-cheap (exact scope
	// extent from the DN index) — any choice is fine, but the call must
	// not error; just exercise it.
	deep := query.MustParse("(uid=u0003, ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=*)").(*query.Atomic)
	_ = st.preferScan(deep, NeedAll, nil)
}

func TestCostBasedChoiceKeepsAnswers(t *testing.T) {
	// Whatever path the catalog picks, answers equal the forced scan.
	in := buildTestInstance(t, 100)
	d := pager.NewDisk(1024)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range atomicCases {
		q := query.MustParse(qs).(*query.Atomic)
		a, err := evalAtomic(st, q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		b, err := evalScan(st, q)
		if err != nil {
			t.Fatal(err)
		}
		ka, kb := keysOf(t, a), keysOf(t, b)
		if len(ka) != len(kb) {
			t.Errorf("%s: cost-based %d vs scan %d", qs, len(ka), len(kb))
		}
	}
}
