// Command docslint is the documentation gate wired into `make docs`
// and the CI docs job. It fails (exit 1, one line per finding) when
//
//   - a markdown file in the repository links to a repository-relative
//     target that does not exist (broken intra-repo links are how
//     ARCHITECTURE.md, DESIGN.md and README.md drift apart),
//   - a markdown file names, in backticks, an `internal/...` package or
//     file that does not exist, or an identifier — `file.go:Ident`,
//     `pkg.Ident`, `pkg.Type.Method` — that the file or package does not
//     declare (deleting code without fixing the prose about it; the
//     change-history files listed in historyDocs are exempt),
//   - a dirserve, dirq, dirgen or dirbench command line, in an inline
//     code span or a fenced block outside the history files, passes a
//     flag that cmd/<name>/main.go does not declare, or a dirbench
//     command line's -only names an experiment that bench.Specs
//     (internal/bench/run.go) does not register, or
//   - an exported identifier in the packages listed in docPackages is
//     missing its doc comment (go doc output is documentation too).
//
// External links (http/https/mailto) and pure #anchor links are not
// checked — this tool runs offline and anchors vary by renderer.
//
// Usage: go run ./tools/docslint [repo root]   (default ".")
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// docPackages are the directories whose exported identifiers must all
// carry doc comments.
var docPackages = []string{
	"internal/obs",
	"internal/engine",
	"internal/vindex",
	"internal/planner",
	"internal/store",
	"internal/btree",
	"internal/pager",
	"internal/dirserver",
}

// historyDocs record what past changes did and may name packages that
// are gone; the stale-package check skips them.
var historyDocs = map[string]bool{"ROADMAP.md": true, "CHANGES.md": true, "ISSUE.md": true}

// skipDirs are never scanned for markdown.
var skipDirs = map[string]bool{".git": true, "node_modules": true}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	problems = append(problems, checkMarkdownLinks(root, declaredFlags(root), experimentIDs(root))...)
	for _, pkg := range docPackages {
		problems = append(problems, checkDocComments(root, pkg)...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docslint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docslint: ok")
}

// linkRe matches inline markdown links [text](target). Images and
// reference-style links are out of scope for this repository.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// pkgPathRe matches a backticked internal/... reference: the path, and
// for the `internal/core/swap_test.go:TestX` form the identifier after
// the colon. The identifier of the `internal/model.DefaultSchema` form is
// part of the path match; staleRef splits it off.
var pkgPathRe = regexp.MustCompile("`(internal/[A-Za-z0-9_./-]+)(?::([A-Za-z0-9_.]+))?")

// declared maps a package directory to the top-level names each of its
// Go files declares ("Type.Method" for methods), one parse per package.
type declared map[string]map[string]map[string]bool

func (c declared) files(dir string) map[string]map[string]bool {
	if files, ok := c[dir]; ok {
		return files
	}
	files := make(map[string]map[string]bool)
	c[dir] = files
	pkgs, _ := parser.ParseDir(token.NewFileSet(), dir, nil, parser.SkipObjectResolution)
	for _, p := range pkgs {
		for name, f := range p.Files {
			names := make(map[string]bool)
			files[filepath.Base(name)] = names
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if recv := receiverName(d); recv != "" {
						names[recv+"."+d.Name.Name] = true
					} else {
						names[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return files
}

// staleRef reports whether a backticked internal/... reference names
// nothing in the tree. A bare path must be an existing file or
// directory. path.go:Ident needs Ident declared at the top level of that
// file; pkg.Ident needs it declared in a non-test file of the package
// directory.
func (c declared) staleRef(root, ref, ident string) bool {
	ref, ident = strings.TrimRight(ref, "./"), strings.TrimRight(ident, ".")
	abs := func(p string) string { return filepath.Join(root, filepath.FromSlash(p)) }
	if _, err := os.Stat(abs(ref)); err == nil {
		return ident != "" && !c.files(filepath.Dir(abs(ref)))[filepath.Base(ref)][ident]
	}
	dir, last := filepath.Split(ref)
	i := strings.IndexByte(last, '.')
	if i <= 0 || ident != "" {
		return true
	}
	for file, names := range c.files(abs(dir + last[:i])) {
		if names[last[i+1:]] && !strings.HasSuffix(file, "_test.go") {
			return false
		}
	}
	return true
}

// checkMarkdownLinks verifies every repository-relative link target in
// every tracked markdown file resolves to an existing file or
// directory, and every backticked internal/... reference and command
// line outside the history files names something that exists. ids holds
// the experiment IDs dirbench -only accepts, upper-cased.
func checkMarkdownLinks(root string, flags map[string]map[string]bool, ids map[string]bool) []string {
	var problems []string
	decls := make(declared)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDirs[d.Name()] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fenced, cmdline := false, ""
		for i, line := range strings.Split(string(data), "\n") {
			if !historyDocs[d.Name()] {
				for _, m := range pkgPathRe.FindAllStringSubmatch(line, -1) {
					if decls.staleRef(root, m[1], m[2]) {
						problems = append(problems,
							fmt.Sprintf("%s:%d: %q names no package, file or declaration in the tree", path, i+1, m[0][1:]))
					}
				}
				// A fenced line is a command line, continued by a trailing
				// backslash; outside fences each code span is one.
				var cmdlines []string
				switch {
				case strings.HasPrefix(strings.TrimSpace(line), "```"):
					fenced = !fenced
				case fenced && strings.HasSuffix(line, `\`):
					cmdline += strings.TrimSuffix(line, `\`)
				case fenced:
					cmdlines, cmdline = []string{cmdline + line}, ""
				default:
					for _, m := range codeSpanRe.FindAllStringSubmatch(line, -1) {
						cmdlines = append(cmdlines, m[1])
					}
				}
				for _, c := range cmdlines {
					shown := strings.Join(strings.Fields(c), " ")
					for _, f := range undeclaredFlags(c, flags) {
						problems = append(problems, fmt.Sprintf("%s:%d: %q passes %s, which is not declared in cmd/%s/main.go",
							path, i+1, shown, f[1], f[0]))
					}
					for _, f := range passedFlags(c, flags) {
						if f.cmd == "dirbench" && f.name == "only" && !ids[strings.ToUpper(f.value)] {
							problems = append(problems, fmt.Sprintf("%s:%d: %q runs experiment %q, which bench.Specs in internal/bench/run.go does not register",
								path, i+1, shown, f.value))
						}
					}
				}
			}
			for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
					continue
				}
				// Strip any #anchor; the file half must exist.
				if j := strings.IndexByte(target, '#'); j >= 0 {
					target = target[:j]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems,
						fmt.Sprintf("%s:%d: broken link %q", path, i+1, m[1]))
				}
			}
		}
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("docslint: walking %s: %v", root, err))
	}
	return problems
}

var (
	codeSpanRe = regexp.MustCompile("`([^`]+)`")
	quotedRe   = regexp.MustCompile(`'[^']*'|"[^"]*"`)
	flagDeclRe = regexp.MustCompile(`flag\.\w+\(\s*(?:&\w+,\s*)?"([^"]+)"`)
)

// declaredFlags maps each checked command to the flags its main.go
// declares (flag.X("name", ...) or flag.XVar(&v, "name", ...)), plus h
// and help, which the flag package always accepts.
func declaredFlags(root string) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, cmd := range []string{"dirserve", "dirq", "dirgen", "dirbench"} {
		out[cmd] = map[string]bool{"h": true, "help": true}
		// An unreadable main.go declares nothing, so every flag a
		// command line passes to that command is reported.
		src, _ := os.ReadFile(filepath.Join(root, "cmd", cmd, "main.go"))
		for _, m := range flagDeclRe.FindAllSubmatch(src, -1) {
			out[cmd][string(m[1])] = true
		}
	}
	return out
}

// experimentIDs reads the IDs of bench.Specs, the registry dirbench
// -only selects from (case-insensitively), out of internal/bench/run.go
// and returns them upper-cased. An unreadable file registers none.
func experimentIDs(root string) map[string]bool {
	ids := make(map[string]bool)
	f, _ := parser.ParseFile(token.NewFileSet(), filepath.Join(root, "internal", "bench", "run.go"), nil, parser.SkipObjectResolution)
	if f == nil {
		return ids
	}
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "Specs" || len(vs.Values) != 1 {
			return true
		}
		specs, _ := vs.Values[0].(*ast.CompositeLit)
		if specs == nil {
			return false
		}
		for _, e := range specs.Elts {
			if spec, ok := e.(*ast.CompositeLit); ok && len(spec.Elts) > 0 {
				if lit, ok := spec.Elts[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if id, err := strconv.Unquote(lit.Value); err == nil {
						ids[strings.ToUpper(id)] = true
					}
				}
			}
		}
		return false
	})
	return ids
}

// cmdFlag is one flag a command line passes to a checked command, with
// the word that would be its value: the text after "=", else the next
// word.
type cmdFlag struct{ cmd, name, value string }

// passedFlags returns every flag a shell command line passes to a
// checked command. A command is named by its binary's base name (dirq,
// ./cmd/dirq, bin/dirq); go commands other than go run invoke none.
// Quoted words are never flags; |, &&, ; end a command and # a line.
func passedFlags(cmdline string, flags map[string]map[string]bool) (out []cmdFlag) {
	cmd, prev, goTool := "", "", false
	words := strings.Fields(quotedRe.ReplaceAllString(cmdline, "''"))
	for i, w := range words {
		switch {
		case strings.HasPrefix(w, "#"):
			return out
		case w == "|" || w == "||" || w == "&&" || w == ";" || w == "&":
			cmd, goTool = "", false
		case goTool:
		case prev == "go" && w != "run":
			goTool = true
		case flags[path.Base(w)] != nil:
			cmd = path.Base(w)
		case cmd != "" && len(w) > 1 && w[0] == '-':
			name, value, eq := strings.Cut(strings.TrimLeft(w, "-"), "=")
			if !eq && i+1 < len(words) {
				value = words[i+1]
			}
			if name != "" && (name[0] < '0' || name[0] > '9') {
				out = append(out, cmdFlag{cmd, name, value})
			}
		}
		prev = w
	}
	return out
}

// undeclaredFlags returns, as (command, flag) pairs, every flag that a
// shell command line passes to a checked command without the command
// declaring it.
func undeclaredFlags(cmdline string, flags map[string]map[string]bool) (bad [][2]string) {
	for _, f := range passedFlags(cmdline, flags) {
		if !flags[f.cmd][f.name] {
			bad = append(bad, [2]string{f.cmd, "-" + f.name})
		}
	}
	return bad
}

// checkDocComments parses one package directory (tests excluded) and
// reports every exported type, function, method, const and var that
// lacks a doc comment. Grouped const/var blocks count as documented
// when the block carries a doc comment.
func checkDocComments(root, pkg string) []string {
	dir := filepath.Join(root, filepath.FromSlash(pkg))
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("docslint: parsing %s: %v", dir, err)}
	}
	var problems []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		problems = append(problems,
			fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, what, name))
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil && !isExportedMethodOfUnexported(d) {
						what := "function"
						if d.Recv != nil {
							what = "method"
						}
						report(d.Pos(), what, d.Name.Name)
					}
				case *ast.GenDecl:
					blockDocumented := d.Doc != nil
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && s.Doc == nil && !blockDocumented {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							if blockDocumented || s.Doc != nil {
								continue
							}
							for _, n := range s.Names {
								if n.IsExported() {
									report(n.Pos(), kindWord(d.Tok), n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return problems
}

// isExportedMethodOfUnexported reports whether d is a method on an
// unexported receiver type — godoc hides those, so they are exempt.
func isExportedMethodOfUnexported(d *ast.FuncDecl) bool {
	recv := receiverName(d)
	return recv != "" && !ast.IsExported(recv)
}

// receiverName returns the name of d's receiver type, "" for a plain
// function.
func receiverName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func kindWord(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
