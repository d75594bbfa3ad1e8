package bench

import (
	"strconv"
	"strings"
	"testing"
)

// The experiment suite is itself load-bearing (EXPERIMENTS.md is built
// from it), so the claims each table encodes are asserted here at small
// scale.

var tinyPreset = Preset{
	Linear:   []int{400, 1600},
	Super:    []int{400, 1600},
	Cross:    []int{150, 600},
	AcSizes:  []int{400, 1600},
	Dist:     []int{8},
	IndexN:   150,
	AppScale: 30,
	StackN:   120,
	CacheN:   800,
	CacheOps: 300,
}

func tableByID(t *testing.T, id string) *Table {
	t.Helper()
	for _, s := range Specs {
		if s.ID == id {
			return s.Run(tinyPreset)
		}
	}
	t.Fatalf("no spec %s", id)
	return nil
}

// firstFloatAfter extracts the first float literal following marker in
// s, e.g. the fitted slope out of a table note.
func firstFloatAfter(s, marker string) (float64, bool) {
	i := strings.Index(s, marker)
	if i < 0 {
		return 0, false
	}
	rest := s[i+len(marker):]
	start := strings.IndexAny(rest, "-0123456789")
	if start < 0 {
		return 0, false
	}
	end := start
	for end < len(rest) && strings.ContainsRune("-.0123456789", rune(rest[end])) {
		end++
	}
	v, err := strconv.ParseFloat(rest[start:end], 64)
	return v, err == nil
}

func noteSlope(t *testing.T, tab *Table) float64 {
	t.Helper()
	for _, n := range tab.Notes {
		if v, ok := firstFloatAfter(n, "slope"); ok {
			return v
		}
	}
	t.Fatalf("%s: no slope note in %v", tab.ID, tab.Notes)
	return 0
}

func TestLinearExperimentsStayLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E6"} {
		tab := tableByID(t, id)
		s := noteSlope(t, tab)
		if s < 0.7 || s > 1.45 {
			t.Errorf("%s: slope %.2f outside linear band", id, s)
		}
	}
}

func TestE7SubQuadratic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	tab := tableByID(t, "E7")
	s := noteSlope(t, tab)
	if s > 1.6 {
		t.Errorf("E7 slope %.2f looks quadratic", s)
	}
}

func TestE10NaiveIsQuadratic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	tab := tableByID(t, "E10")
	note := strings.Join(tab.Notes, " ")
	naive, ok1 := firstFloatAfter(note, "naive ")
	stack, ok2 := firstFloatAfter(note, "stack ")
	if !ok1 || !ok2 {
		t.Fatalf("notes: %v", tab.Notes)
	}
	if naive < 1.6 {
		t.Errorf("naive slope %.2f not quadratic-ish", naive)
	}
	if stack > 1.35 {
		t.Errorf("stack slope %.2f not linear-ish", stack)
	}
	if naive-stack < 0.5 {
		t.Errorf("separation too small: naive %.2f vs stack %.2f", naive, stack)
	}
}

func TestE17NestingLowerBound(t *testing.T) {
	// E17Operators panics if any nesting count deviates from d-1; running
	// it IS the assertion.
	tab := E17Operators([]int{3, 5, 7})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if !strings.HasPrefix(row[2], "c^") {
			t.Errorf("row %v lacks the working nesting", row)
		}
	}
}

func TestE11AllSeparationsVerified(t *testing.T) {
	tab := E11Hierarchy()
	for _, row := range tab.Rows {
		if row[len(row)-1] != "ok" {
			t.Errorf("separation %s: %s", row[0], row[len(row)-1])
		}
	}
	if len(tab.Rows) != 4 {
		t.Errorf("expected 4 separations, got %d", len(tab.Rows))
	}
}

func TestE14AnswersEqual(t *testing.T) {
	if testing.Short() {
		t.Skip("spins TCP servers")
	}
	tab := tableByID(t, "E14")
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("distributed answers diverged: %v", row)
		}
	}
}

func TestSlopeFit(t *testing.T) {
	// Exact powers recover their exponents.
	xs := []float64{100, 200, 400, 800}
	lin := make([]float64, len(xs))
	quad := make([]float64, len(xs))
	for i, x := range xs {
		lin[i] = 3 * x
		quad[i] = 0.5 * x * x
	}
	if s := Slope(xs, lin); s < 0.99 || s > 1.01 {
		t.Errorf("linear slope = %f", s)
	}
	if s := Slope(xs, quad); s < 1.99 || s > 2.01 {
		t.Errorf("quadratic slope = %f", s)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Header: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== X: t", "a", "bb", "1", "2.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
}

// TestE20ConcurrentIdentical asserts the §10 determinism claim at small
// scale: every quiescent reader count hashes identically to the serial
// run (divergence panics inside the experiment), the background-update
// rows complete without error, and the updater actually swapped
// generations under the readers.
func TestE20ConcurrentIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	// Run below even the tiny preset: the wide-query stream costs tens
	// of milliseconds per evaluation, and eight rows multiply it.
	tab := E20ConcurrentSearch(300, 48)
	if len(tab.Rows) != 8 {
		t.Fatalf("rows: %v", tab.Rows)
	}
	hash := ""
	swapped := false
	for _, row := range tab.Rows {
		mode, h := row[1], row[7]
		swaps, _ := strconv.ParseInt(row[6], 10, 64)
		if mode == "off" {
			if hash == "" {
				hash = h
			} else if h != hash {
				t.Errorf("quiescent hash diverged: %s vs %s", h, hash)
			}
		} else if swaps > 0 {
			swapped = true
		}
	}
	if hash == "" {
		t.Error("no quiescent rows found")
	}
	if !swapped {
		t.Error("background updater never swapped a generation")
	}
}
