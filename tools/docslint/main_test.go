package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestUndeclaredFlags pins what counts as a command line and as a flag.
func TestUndeclaredFlags(t *testing.T) {
	flags := map[string]map[string]bool{
		"dirq":     {"q": true, "gen": true, "explain": true},
		"dirbench": {"quick": true, "only": true},
	}
	cases := []struct {
		line string
		want string
	}{
		{"dirq -gen paper -q '(dc=com ? sub ? n=x)'", "[]"},
		{"dirq -workers 8", "[[dirq -workers]]"},
		{"/tmp/bin/dirq --gen=paper -bogus", "[[dirq -bogus]]"},
		{"$ go run ./cmd/dirbench -quick -only E20", "[]"},
		{"go run ./cmd/dirbench -cpu 2", "[[dirbench -cpu]]"},
		{"go build -o bin/dirq ./cmd/dirq", "[]"},
		{"go test -run X ./cmd/dirq", "[]"},
		{"dirq -q '(- a -b)' | grep -c x", "[]"},
		{"dirq -explain   # -workers here is a comment", "[]"},
		{"dirq -q \"knn(emb,[0.5, -1],3)\"", "[]"},
		{"dirload -pairs 10", "[]"},
	}
	for _, c := range cases {
		if got := fmt.Sprint(undeclaredFlags(c.line, flags)); got != c.want {
			t.Errorf("%s: got %s, want %s", c.line, got, c.want)
		}
	}
}

// TestMarkdownCommandLines checks that inline code spans and fenced
// lines, joined by a trailing backslash, are read as command lines,
// that dirbench -only must name a registered experiment (in any case),
// and that the history files are exempt.
func TestMarkdownCommandLines(t *testing.T) {
	root := t.TempDir()
	write := func(name, text string) {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("cmd/dirq/main.go", `var gen = flag.String("gen", "paper", "generator")`)
	write("cmd/dirbench/main.go", `var only = flag.String("only", "", "one experiment")`)
	write("internal/bench/run.go", "package bench\n\nvar Specs = []Spec{\n\t{\"E1\", nil},\n\t{\"A2\", nil},\n}\n")
	write("CHANGES.md", "`dirq -gone`\n`dirbench -only E18`\n")
	write("doc.md", "Run `dirq -gen paper -nope` first.\n\n```\ndirq -gen paper \\\n  -bad 1\n```\n`-bad` alone is prose.\n"+
		"`go run ./cmd/dirbench -only e1`, `dirbench -only=A2`, `dirbench -only E18 | tail`\n")
	got := checkMarkdownLinks(root, declaredFlags(root), experimentIDs(root))
	want := []string{
		filepath.Join(root, "doc.md") + `:1: "dirq -gen paper -nope" passes -nope, which is not declared in cmd/dirq/main.go`,
		filepath.Join(root, "doc.md") + `:5: "dirq -gen paper -bad 1" passes -bad, which is not declared in cmd/dirq/main.go`,
		filepath.Join(root, "doc.md") + `:8: "dirbench -only E18 | tail" runs experiment "E18", which bench.Specs in internal/bench/run.go does not register`,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got  %q\nwant %q", got, want)
	}
}

// TestDeclaredFlags reads the repository's own commands.
func TestDeclaredFlags(t *testing.T) {
	flags := declaredFlags("../..")
	for cmd, names := range map[string][]string{
		"dirserve": {"gen", "flight", "data", "checkpoint-every", "h"},
		"dirq":     {"q", "explain", "peers"},
		"dirgen":   {"kind", "vecdim", "o"},
		"dirbench": {"quick", "only"},
	} {
		for _, name := range names {
			if !flags[cmd][name] {
				t.Errorf("%s: -%s not found among %d declared flags", cmd, name, len(flags[cmd]))
			}
		}
	}
	if flags["dirserve"]["nonexistent"] {
		t.Error("undeclared flag reported as declared")
	}
}

// TestExperimentIDs reads the repository's own experiment registry.
func TestExperimentIDs(t *testing.T) {
	ids := experimentIDs("../..")
	for _, id := range []string{"E1", "E10", "E22", "A1", "A4"} {
		if !ids[id] {
			t.Errorf("%s not found among %d registered experiments", id, len(ids))
		}
	}
	if ids["E99"] {
		t.Error("unregistered experiment reported as registered")
	}
}
