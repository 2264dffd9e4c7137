package banyan_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocNames fails on any backticked Go name in the top-level docs
// that no declaration in the repository backs: a test, benchmark, fuzz
// target or example function (`TestFoo`), or an exported `pkg.Name` of
// one of the repository's packages. A trailing `*` names a prefix. A
// deleted or renamed declaration thus cannot leave a dangling doc
// reference behind.
func TestDocNames(t *testing.T) {
	declared := map[string]bool{} // "pkg.Name" of every top-level declaration
	pkgs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		pkgs[pkg] = true
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					declared[pkg+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declared[pkg+"."+spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declared[pkg+"."+id.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// exists reports whether some declaration matches want: "pkg.Name"
	// exactly, or a bare test name in any package; a trailing "*" makes
	// either a prefix.
	exists := func(want string) bool {
		prefix := strings.HasSuffix(want, "*")
		want = strings.TrimSuffix(want, "*")
		bare := !strings.Contains(want, ".")
		for name := range declared {
			if bare {
				name = name[strings.IndexByte(name, '.')+1:]
			}
			if name == want || prefix && strings.HasPrefix(name, want) {
				return true
			}
		}
		return false
	}

	span := regexp.MustCompile("`[^`]+`")
	testName := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_0-9]\w*\*?`)
	pkgName := regexp.MustCompile(`\b([a-z]\w*)\.[A-Z]\w*\*?`)
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Blank fenced code blocks, keeping the line count, so that only
		// inline code spans remain.
		lines := strings.Split(string(raw), "\n")
		fenced := false
		for i, l := range lines {
			fence := strings.HasPrefix(strings.TrimSpace(l), "```")
			if fence || fenced {
				lines[i] = ""
			}
			if fence {
				fenced = !fenced
			}
		}
		text := strings.Join(lines, "\n")
		for _, loc := range span.FindAllStringIndex(text, -1) {
			code := text[loc[0]:loc[1]]
			line := 1 + strings.Count(text[:loc[0]], "\n")
			for _, name := range testName.FindAllString(code, -1) {
				if !exists(name) {
					t.Errorf("%s:%d: `%s` names no declaration", doc, line, name)
				}
			}
			for _, m := range pkgName.FindAllStringSubmatch(code, -1) {
				if pkgs[m[1]] && !exists(m[0]) {
					t.Errorf("%s:%d: `%s` names no declaration", doc, line, m[0])
				}
			}
		}
	}
}
