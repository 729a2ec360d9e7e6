package grover_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpan    = regexp.MustCompile("`[^`]+`")
	// pkg.Name or pkg.Type.Member, exported names only: a lower-case
	// pkg.name in these documents is a span or metric name of the ledger
	// (`vm.prepare`, `service.shed`), not Go.
	goRef   = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
	lineRef = regexp.MustCompile(`\b((?:[\w-]+/)+[\w-]+\.go):(\d+(?:,\d+)*)`)
)

// TestDocReferences keeps the prose pointing at code that exists. Every
// backticked pkg.Name in DESIGN.md and README.md whose pkg is the name of
// a package directory of this module must be a top-level declaration or
// a method in that package's non-test files (pkg.Type.Member may also
// name a struct field), and every dir/file.go:N in DESIGN.md, README.md
// and ROADMAP.md must name a file with at least N lines. ROADMAP.md,
// EXPERIMENTS.md and CHANGES.md are left out of the name check because
// they name deleted code on purpose, as history.
func TestDocReferences(t *testing.T) {
	dirs, goFiles := moduleLayout(t)
	decls := map[string]map[string]bool{}
	declared := func(pkg, name string) bool {
		for _, dir := range dirs[pkg] {
			if decls[dir] == nil {
				decls[dir] = packageDecls(t, dir)
			}
			if decls[dir][name] {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text := fencedBlock.ReplaceAllString(readDoc(t, doc), "")
		for _, span := range codeSpan.FindAllString(text, -1) {
			for _, m := range goRef.FindAllStringSubmatch(span, -1) {
				pkg, name, member := m[1], m[2], m[3]
				if dirs[pkg] == nil {
					continue
				}
				if !declared(pkg, name) {
					t.Errorf("%s: %s names %s.%s, which package %s does not declare", doc, span, pkg, name, pkg)
				} else if member != "" && !declared(pkg, name+"."+member) {
					t.Errorf("%s: %s names %s.%s.%s, which is no method or field of %s", doc, span, pkg, name, member, name)
				}
			}
		}
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "ROADMAP.md"} {
		for _, m := range lineRef.FindAllStringSubmatch(readDoc(t, doc), -1) {
			ref, lines := m[0], 0
			for _, f := range goFiles {
				if f == m[1] || strings.HasSuffix(f, "/"+m[1]) {
					data, err := os.ReadFile(f)
					if err != nil {
						t.Fatal(err)
					}
					lines = strings.Count(string(data), "\n")
					break
				}
			}
			for _, n := range strings.Split(m[2], ",") {
				if want, _ := strconv.Atoi(n); lines < want {
					t.Errorf("%s: %s: no file %s with %d lines", doc, ref, m[1], want)
				}
			}
		}
	}
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// moduleLayout lists the package directories of the module by package
// directory name (the root directory is the module's own name, grover)
// and every Go file, without descending into bench/, a module of its own.
func moduleLayout(t *testing.T) (map[string][]string, []string) {
	t.Helper()
	dirs := map[string][]string{}
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || path == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		files = append(files, path)
		dir := filepath.Dir(path)
		name := filepath.Base(dir)
		if dir == "." {
			name = "grover"
		}
		if !strings.HasSuffix(path, "_test.go") && (len(dirs[name]) == 0 || dirs[name][len(dirs[name])-1] != dir) {
			dirs[name] = append(dirs[name], dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs, files
}

// packageDecls is the set of names dir's non-test files declare at top
// level, the names of their methods, and Type.Method and Type.Field for
// each method and struct field.
func packageDecls(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				names[d.Name.Name] = true
				if d.Recv != nil {
					names[recvType(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									names[s.Name.Name+"."+n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// recvType is the type name of a method receiver, T or *T.
func recvType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
