package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports lists exported declarations under internal/ that are kept
// on purpose although no other non-test declaration mentions them, keyed
// "dir.Name", each with its reason.
var testOnlyExports = map[string]string{}

// TestNoTestOnlyExports keeps production code to what a shipped program
// uses: it fails on any exported top-level func, type, var or const
// declared in a non-test file under internal/ whose name no other non-test
// declaration in the repository mentions (bench/, cmd/ and examples/
// included).  Such a name is either dead or used only by tests, which keep
// their helpers in _test.go files.
//
// The guard is a lower bound, not a reachability analysis: names match as
// bare identifiers, so an unrelated declaration sharing the name counts as
// a use, and methods are out of scope because names such as Round collide
// across types.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key  string
		name string
		node ast.Node
	}
	var decls, candidates []decl
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		add := func(node ast.Node, name *ast.Ident, checked bool) {
			d := decl{key: dir + "." + name.Name, name: name.Name, node: node}
			decls = append(decls, d)
			if checked && name.IsExported() && strings.HasPrefix(dir, "internal/") {
				candidates = append(candidates, d)
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d, d.Name, d.Recv == nil)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec, spec.Name, true)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(spec, name, true)
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

	// mentions maps each identifier to the declarations whose source
	// mentions it; a declaration's own body counts for it, so recursion is
	// not a use.
	mentions := map[string]map[ast.Node]bool{}
	for _, d := range decls {
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if mentions[id.Name] == nil {
					mentions[id.Name] = map[ast.Node]bool{}
				}
				mentions[id.Name][d.node] = true
			}
			return true
		})
	}
	unused := map[string]bool{}
	for _, c := range candidates {
		users := len(mentions[c.name])
		if mentions[c.name][c.node] {
			users--
		}
		if users == 0 {
			unused[c.key] = true
		}
	}

	var offenders []string
	for key := range unused {
		if _, ok := testOnlyExports[key]; !ok {
			offenders = append(offenders, key)
		}
	}
	sort.Strings(offenders)
	for _, key := range offenders {
		t.Errorf("%s: no non-test declaration mentions it; delete it, move it into a _test.go file, or allow-list it with a reason", key)
	}
	for key := range testOnlyExports {
		if !unused[key] {
			t.Errorf("allow-list entry %s is stale: it is gone or now used", key)
		}
	}
}
