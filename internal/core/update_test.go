package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/store"
)

func TestUpdateAddAndRemove(t *testing.T) {
	d := smallDirectory(t, Options{})
	n := d.Count()

	// Add a new subscriber policy dynamically (the paper: "subscriber
	// policies can be created and modified dynamically", Section 2.2).
	err := d.Update(func(in *model.Instance) error {
		e, err := model.NewEntryFromDN(in.Schema(),
			model.MustParseDN("QHPName=vacation, uid=jag, ou=userProfiles, dc=research, dc=att, dc=com"))
		if err != nil {
			return err
		}
		e.AddClass("QHP").Add("priority", model.Int(3))
		return in.Add(e)
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() != n+1 {
		t.Fatalf("count = %d, want %d", d.Count(), n+1)
	}
	res, err := d.Search("(dc=com ? sub ? QHPName=vacation)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 {
		t.Fatalf("new entry invisible: %v", res.DNs())
	}

	// Remove it again.
	err = d.Update(func(in *model.Instance) error {
		if !in.Remove(model.MustParseDN("QHPName=vacation, uid=jag, ou=userProfiles, dc=research, dc=att, dc=com")) {
			return errors.New("missing")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err = d.Search("(dc=com ? sub ? QHPName=vacation)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 0 {
		t.Fatal("removed entry still visible")
	}
}

func TestUpdateErrorSkipsRebuild(t *testing.T) {
	d := smallDirectory(t, Options{})
	boom := errors.New("boom")
	if err := d.Update(func(*model.Instance) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Directory still queryable.
	if _, err := d.Search("(dc=com ? sub ? objectClass=*)"); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeOptionPreservesAnswers(t *testing.T) {
	plain := smallDirectory(t, Options{})
	opt := smallDirectory(t, Options{Optimize: true})
	queries := []string{
		`(& (ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=QHP)
		    (dc=com ? sub ? priority<=2))`,
		`(ac (dc=com ? sub ? objectClass=QHP) (dc=com ? sub ? objectClass=TOPSSubscriber)
		     ( ? sub ? objectClass=*))`,
		`(- (dc=com ? sub ? objectClass=*) (dc=com ? sub ? objectClass=*))`,
	}
	for _, qs := range queries {
		a, err := plain.Search(qs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := opt.Search(qs)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a.DNs()) != fmt.Sprint(b.DNs()) {
			t.Errorf("%s: optimizer changed answers\nplain %v\nopt   %v", qs, a.DNs(), b.DNs())
		}
	}
}

func TestStrictnessRecomputedOnUpdate(t *testing.T) {
	ou := model.MustParseDN("ou=userProfiles, dc=research, dc=att, dc=com")
	// Make the forest lenient by orphaning a subtree root's parent, once
	// through each writer.
	for name, orphan := range map[string]func(*Directory) error{
		"Update": func(d *Directory) error {
			return d.Update(func(in *model.Instance) error {
				if !in.Remove(ou) {
					return errors.New("missing ou")
				}
				return nil
			})
		},
		"UpdateEntries": func(d *Directory) error {
			return d.UpdateEntries(store.EntryOp{Remove: ou})
		},
	} {
		d := smallDirectory(t, Options{Optimize: true})
		if err := orphan(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// uid=jag is now an orphan: its nearest present ancestor is
		// dc=research. The ac query must still be answered per ac
		// semantics (the planner must NOT collapse it to p on a lenient
		// forest).
		res, err := d.Search(`(ac (dc=com ? sub ? uid=jag) ( ? sub ? dc=research) ( ? sub ? objectClass=*))`)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Entries) != 1 {
			t.Fatalf("%s: ac on lenient forest: %v", name, res.DNs())
		}
	}
}
