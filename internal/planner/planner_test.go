package planner_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/workload"
)

func evalKeys(t *testing.T, dir *core.Directory, q query.Query) []string {
	t.Helper()
	res, _, err := dir.SearchWith(context.Background(), core.Request{Query: q})
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	keys := make([]string, len(res.Entries))
	for i, e := range res.Entries {
		keys[i] = e.Key()
	}
	return keys
}

// rewriteCases exercises each rule plus non-firing shapes.
var rewriteCases = []struct {
	q        string
	wantRule string // "" = no rewrite expected
}{
	{`(& (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)
	     (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules))`, "idempotent-&"},
	{`(| (dc=com ? sub ? dc=*) (dc=com ? sub ? dc=*))`, "idempotent-|"},
	{`(- (dc=com ? sub ? dc=*) (dc=com ? sub ? dc=*))`, "self-difference"},
	{`(& (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)
	     (dc=com ? sub ? SLARulePriority<=2))`, "and-narrow-scope"},
	{`(& (ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=QHP)
	     (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=QHP))`, "and-disjoint-empty"},
	{`(- (ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=*)
	     (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=*))`, "diff-disjoint-noop"},
	{`(ac (dc=com ? sub ? objectClass=trafficProfile)
	      (dc=com ? sub ? ou=networkPolicies)
	      ( ? sub ? objectClass=*))`, "ac-all-to-p"},
	{`(dc (dc=com ? sub ? objectClass=organizationalUnit)
	      (dc=com ? sub ? objectClass=QHP)
	      ( ? sub ? objectClass=*))`, "dc-all-to-c"},
	// Non-firing: overlapping but non-nested is impossible in a forest;
	// same-base & stays as-is; one-scoped atoms are left alone.
	{`(& (dc=com ? sub ? objectClass=QHP) (dc=com ? sub ? priority<=1))`, ""},
	{`(& (dc=com ? one ? dc=*) (dc=att, dc=com ? sub ? dc=*))`, ""},
	{`(ac (dc=com ? sub ? dc=*) (dc=com ? sub ? dc=*) (dc=com ? sub ? objectClass=*))`, ""},
}

func TestRewritesPreserveAnswers(t *testing.T) {
	in := workload.PaperInstance()
	if err := in.Validate(true); err != nil {
		t.Fatal(err)
	}
	dir, err := core.Open(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rewriteCases {
		q := query.MustParse(c.q)
		res := planner.Optimize(q, planner.Info{StrictForest: true})
		if c.wantRule == "" {
			if len(res.Rules) != 0 {
				t.Errorf("%s: unexpected rules %v", c.q, res.Rules)
			}
		} else if !contains(res.Rules, c.wantRule) {
			t.Errorf("%s: rules %v, want %s", c.q, res.Rules, c.wantRule)
		}
		want := evalKeys(t, dir, q)
		got := evalKeys(t, dir, res.Query)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s:\nrewritten %s\n got %v\nwant %v", c.q, res.Query, got, want)
		}
	}
}

func TestAcCollapseRequiresStrictForest(t *testing.T) {
	// A lenient forest where the parent is missing: ac(all) and p
	// genuinely differ, so the rule must not fire without the guarantee.
	s := model.DefaultSchema()
	in := model.NewInstance(s)
	add := func(dn string) {
		e, err := model.NewEntryFromDN(s, model.MustParseDN(dn))
		if err != nil {
			t.Fatal(err)
		}
		e.AddClass("dcObject")
		in.MustAdd(e)
	}
	add("dc=com")
	add("dc=gone, dc=com")
	in.MustAdd(func() *model.Entry {
		e, _ := model.NewEntryFromDN(s, model.MustParseDN("dc=kid, dc=gone, dc=com"))
		return e.AddClass("dcObject")
	}())
	// Remove the middle entry: kid's parent is gone; dc=com is its
	// nearest present ancestor.
	if !in.Remove(model.MustParseDN("dc=gone, dc=com")) {
		t.Fatal("remove failed")
	}
	dir, err := core.Open(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	acQ := query.MustParse(`(ac (dc=com ? sub ? dc=kid) ( ? sub ? dc=com) ( ? sub ? objectClass=*))`)
	pQ := query.MustParse(`(p (dc=com ? sub ? dc=kid) ( ? sub ? dc=com))`)
	acKeys := evalKeys(t, dir, acQ)
	pKeys := evalKeys(t, dir, pQ)
	if len(acKeys) != 1 || len(pKeys) != 0 {
		t.Fatalf("witness wrong: ac=%v p=%v", acKeys, pKeys)
	}
	// Without StrictForest the planner must leave ac alone.
	res := planner.Optimize(acQ, planner.Info{})
	if contains(res.Rules, "ac-all-to-p") {
		t.Fatal("ac collapse fired without strict-forest guarantee")
	}
	if fmt.Sprint(evalKeys(t, dir, res.Query)) != fmt.Sprint(acKeys) {
		t.Fatal("non-rewrite changed answers")
	}
}

func TestNarrowingReducesIO(t *testing.T) {
	in := workload.GenTOPS(workload.TOPSConfig{Subscribers: 300, Seed: 31})
	dir, err := core.Open(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A tiny subtree intersected with a whole-directory scan.
	q := query.MustParse(`(& (uid=sub0000, ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=QHP)
	                         (dc=com ? sub ? priority<=2))`)
	res := planner.Optimize(q, planner.Info{StrictForest: true})
	if !contains(res.Rules, "and-narrow-scope") {
		t.Fatalf("rules = %v", res.Rules)
	}
	before := dir.Disk().Stats()
	plainKeys := evalKeys(t, dir, q)
	ioPlain := dir.Disk().Stats().Sub(before).IO()
	before = dir.Disk().Stats()
	optKeys := evalKeys(t, dir, res.Query)
	ioOpt := dir.Disk().Stats().Sub(before).IO()
	if fmt.Sprint(plainKeys) != fmt.Sprint(optKeys) {
		t.Fatal("narrowing changed answers")
	}
	if ioOpt*2 > ioPlain {
		t.Errorf("narrowing saved too little: %d -> %d I/Os", ioPlain, ioOpt)
	}
}

func TestFixpointTerminates(t *testing.T) {
	// Nested rewrite opportunities resolve in one Optimize call.
	q := query.MustParse(`(| (& (dc=com ? sub ? dc=*) (dc=com ? sub ? dc=*))
	                         (& (dc=com ? sub ? dc=*) (dc=com ? sub ? dc=*)))`)
	res := planner.Optimize(q, planner.Info{})
	if res.Query.String() != "(dc=com ? sub ? dc=*)" {
		t.Errorf("fixpoint = %s", res.Query)
	}
	if len(res.Rules) < 2 {
		t.Errorf("rules = %v", res.Rules)
	}
	// The rule list names what fired on the user's query and nothing
	// else: the planner's own empty constant is not rewritten again.
	for _, tc := range []struct{ q, want string }{
		{`(& (n=e0 ? sub ? tag=a) (n=e1 ? sub ? tag=b))`, "and-disjoint-empty"},
		{`(- (n=e0 ? sub ? tag=a) (n=e0 ? sub ? tag=a))`, "self-difference"},
	} {
		res := planner.Optimize(query.MustParse(tc.q), planner.Info{})
		if len(res.Rules) != 1 || res.Rules[0] != tc.want {
			t.Errorf("%s: rules = %v, want [%s]", tc.q, res.Rules, tc.want)
		}
		if again := planner.Optimize(res.Query, planner.Info{}); len(again.Rules) != 0 || again.Query.String() != res.Query.String() {
			t.Errorf("%s: not a fixpoint: %s, rules %v", tc.q, again.Query, again.Rules)
		}
	}
}

func TestOptimizePreservesRandomized(t *testing.T) {
	// Property: optimized == plain on randomized TOPS directories for a
	// pool of rewrite-heavy queries.
	for seed := int64(0); seed < 3; seed++ {
		in := workload.GenTOPS(workload.TOPSConfig{Subscribers: 40, Seed: 40 + seed})
		dir, err := core.Open(in, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pool := []string{
			`(& (ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=QHP) (dc=com ? sub ? priority>=2))`,
			`(- (dc=com ? sub ? objectClass=callAppearance) (dc=ibm, dc=com ? sub ? objectClass=*))`,
			`(dc (dc=com ? sub ? objectClass=TOPSSubscriber) (dc=com ? sub ? objectClass=QHP) ( ? sub ? objectClass=*) count($2) >= 2)`,
			`(c (& (dc=com ? sub ? objectClass=TOPSSubscriber) (dc=com ? sub ? objectClass=TOPSSubscriber)) (dc=com ? sub ? objectClass=QHP))`,
		}
		for _, qs := range pool {
			q := query.MustParse(qs)
			res := planner.Optimize(q, planner.Info{StrictForest: true})
			if fmt.Sprint(evalKeys(t, dir, q)) != fmt.Sprint(evalKeys(t, dir, res.Query)) {
				t.Errorf("seed %d: %s rewrote to %s with different answers", seed, qs, res.Query)
			}
		}
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if strings.HasPrefix(s, want) {
			return true
		}
	}
	return false
}
