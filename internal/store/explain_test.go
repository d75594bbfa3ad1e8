package store

import (
	"testing"

	"repro/internal/pager"
	"repro/internal/query"
)

func TestExplainAtomicPaths(t *testing.T) {
	in := buildTestInstance(t, 60)
	d := pager.NewDisk(1024)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q    string
		path string
	}{
		{"(dc=com ? base ? objectClass=*)", "base-point"},
		{"( ? sub ? uid=u0003)", "index"},
		{"( ? sub ? objectClass=*)", "scan"},
		{"( ? sub ? surName~=JAGADISH)", "scan"}, // approx: not index-supported
		{"( ? sub ? surName>m)", "scan"},         // string order: not index-supported
	}
	for _, c := range cases {
		q := query.MustParse(c.q).(*query.Atomic)
		p := st.ExplainAtomic(q, NeedAll)
		if p.Path != c.path {
			t.Errorf("ExplainAtomic(%s).Path = %s, want %s", c.q, p.Path, c.path)
		}
	}
	// Without the attribute index every non-base plan is a scan.
	stScan, err := Build(pager.NewDisk(1024), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := stScan.ExplainAtomic(query.MustParse("( ? sub ? uid=u0003)").(*query.Atomic), NeedAll)
	if p.Path != "scan" || p.EstHits != -1 {
		t.Errorf("unindexed plan = %+v", p)
	}
	if !st.Indexed() || stScan.Indexed() {
		t.Error("Indexed() accessor wrong")
	}
	if st.MasterPages() == 0 || st.Schema() == nil || st.Count() != in.Len() || st.Disk() == nil {
		t.Error("accessors wrong")
	}
}
