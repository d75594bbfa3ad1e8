package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/query"
)

func smallDirectory(t *testing.T, opts Options) *Directory {
	t.Helper()
	b := NewBuilder(model.DefaultSchema()).
		MustAdd("dc=com", "dcObject").
		MustAdd("dc=att, dc=com", "dcObject").
		MustAdd("dc=research, dc=att, dc=com", "dcObject").
		MustAdd("ou=userProfiles, dc=research, dc=att, dc=com", "organizationalUnit")
	if err := b.AddEntry("uid=jag, ou=userProfiles, dc=research, dc=att, dc=com",
		[]string{"inetOrgPerson", "TOPSSubscriber"},
		[2]string{"surName", "jagadish"},
		[2]string{"commonName", "h jagadish"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEntry("QHPName=weekend, uid=jag, ou=userProfiles, dc=research, dc=att, dc=com",
		[]string{"QHP"},
		[2]string{"priority", "1"},
		[2]string{"daysOfWeek", "6"}); err != nil {
		t.Fatal(err)
	}
	d, err := b.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDirectorySearch(t *testing.T) {
	d := smallDirectory(t, Options{})
	res, err := d.Search("(dc=com ? sub ? surName=jagadish)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 {
		t.Fatalf("entries = %v", res.DNs())
	}
	if res.IO.IO() == 0 {
		t.Error("expected counted I/O")
	}
	// Hierarchical query through the facade.
	res, err = d.Search(`(c (dc=com ? sub ? objectClass=TOPSSubscriber)
	                        (dc=com ? sub ? objectClass=QHP))`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || !strings.HasPrefix(res.DNs()[0], "uid=jag") {
		t.Fatalf("children: %v", res.DNs())
	}
}

func TestDirectorySearchErrors(t *testing.T) {
	d := smallDirectory(t, Options{})
	if _, err := d.Search("((("); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := d.Search("(dc=com ? sub ? nosuch=1)"); err == nil {
		t.Error("validation error not surfaced")
	}
}

func TestDirectoryGet(t *testing.T) {
	d := smallDirectory(t, Options{})
	e, err := d.Get("dc=att, dc=com")
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasClass("dcObject") {
		t.Error("wrong entry")
	}
	if _, err := d.Get("dc=missing"); err == nil {
		t.Error("missing DN accepted")
	}
	if _, err := d.Get("not a dn,,"); err == nil {
		t.Error("malformed DN accepted")
	}
}

func TestDirectorySearchLDAP(t *testing.T) {
	d := smallDirectory(t, Options{})
	q, err := query.ParseLDAP("(dc=com ? sub ? (&(objectClass=QHP)(priority<=1)))")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := d.SearchWith(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 {
		t.Fatalf("ldap result: %v", res.DNs())
	}
}

func TestNoAttrIndexOption(t *testing.T) {
	d := smallDirectory(t, Options{NoAttrIndex: true, PageSize: 256})
	res, err := d.Search("(dc=com ? sub ? surName=jag*)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 {
		t.Fatalf("unindexed search: %v", res.DNs())
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(model.DefaultSchema()).MustAdd("dc=com", "noSuchClass")
	if _, err := b.Build(Options{}); err == nil {
		t.Error("deferred builder error lost")
	}
	b2 := NewBuilder(model.DefaultSchema())
	if err := b2.AddEntry("dc=com", []string{"dcObject"}, [2]string{"nosuch", "1"}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if err := b2.AddEntry("dc=com", []string{"dcObject"}, [2]string{"dc", "com"}); err != nil {
		t.Fatal(err)
	}
	// Duplicate DN.
	if err := b2.AddEntry("dc=com", []string{"dcObject"}); err == nil {
		t.Error("duplicate DN accepted")
	}
}

func TestResultHeterogeneity(t *testing.T) {
	// Answers are directory instances: mixed-class entries coexist.
	d := smallDirectory(t, Options{})
	res, err := d.Search("(dc=com ? sub ? objectClass=*)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != d.Count() {
		t.Fatalf("got %d of %d", len(res.Entries), d.Count())
	}
	classes := map[string]bool{}
	for _, e := range res.Entries {
		for _, c := range e.Classes() {
			classes[c] = true
		}
	}
	if len(classes) < 4 {
		t.Errorf("expected heterogeneous classes, got %v", classes)
	}
}

// TestPageGaugesSplitTheDevice: the dirkit_dir_pages_* gauges say what
// the device is made of. Master list, DN tree, attribute tree and
// overlay add up to dirkit_dir_pages (the TOPS directory has no vector
// index) on the opened directory, where the overlay is empty, and on
// the generation an entry-level write made.
func TestPageGaugesSplitTheDevice(t *testing.T) {
	dir, write := topsWriter(t)
	reg := obs.NewRegistry()
	dir.RegisterMetrics(reg)
	check := func(label string, wantOverlay bool) {
		t.Helper()
		m := reg.Snapshot()
		owners := []string{"master", "dn", "attr", "overlay"}
		var sum int64
		for _, o := range owners {
			n := m["dirkit_dir_pages_"+o].(int64)
			if n < 0 || (n == 0) != (o == "overlay" && !wantOverlay) {
				t.Errorf("%s: dirkit_dir_pages_%s = %d", label, o, n)
			}
			sum += n
		}
		if total := m["dirkit_dir_pages"].(int64); sum != total {
			t.Errorf("%s: the owners' gauges sum to %d pages, dirkit_dir_pages is %d", label, sum, total)
		}
	}
	check("opened", false)
	if err := dir.UpdateEntries(write(0)); err != nil {
		t.Fatal(err)
	}
	check("after a write", true)
}
