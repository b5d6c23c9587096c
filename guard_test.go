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
	walkNonTestGo(t, token.NewFileSet(), func(path string, f *ast.File) {
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
	})

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

// TestNoPackageLevelSyncMap keeps per-substrate state with whoever holds
// it: it fails on any package-level variable of a non-test file in the
// root module (bench/ is a module of its own) whose declaration mentions
// sync.Map.  That is the shape of a process-wide cache nothing evicts;
// three such caches once kept the index, shift plan and engine of every
// lattice ever run alive for the life of a server.
func TestNoPackageLevelSyncMap(t *testing.T) {
	fset := token.NewFileSet()
	walkNonTestGo(t, fset, func(path string, f *ast.File) {
		if strings.HasPrefix(path, "bench/") {
			return
		}
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				ast.Inspect(gd, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Map" {
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sync" {
							t.Errorf("%s: package-level sync.Map; let the value that needs the cache own it", fset.Position(sel.Pos()))
						}
					}
					return true
				})
			}
		}
	})
}

// TestOneRuleApplication keeps internal/sim on one rule application,
// Engine.next.  Outside it, a rule-table lookup (a TableIndex call) and a
// rule's counts form (a NextFromCounts call) are allowed only in stepRange,
// whose dense degree-4 loops are next's one inlined copy, kept for a
// measured 8-10% on the torus sweep; and a rule's slice form (a call of a
// method named Next) only in stepRangeTV, which applies the rule to a
// time-varying round's reduced neighborhood.
func TestOneRuleApplication(t *testing.T) {
	allowed := map[string]map[string]bool{
		"TableIndex":     {"Engine.next": true, "Engine.stepRange": true},
		"NextFromCounts": {"Engine.next": true, "Engine.stepRange": true},
		"Next":           {"Engine.next": true, "Engine.stepRangeTV": true},
	}
	seen := map[string]bool{}
	fset := token.NewFileSet()
	walkNonTestGo(t, fset, func(path string, f *ast.File) {
		if filepath.ToSlash(filepath.Dir(path)) != "internal/sim" {
			return
		}
		for _, decl := range f.Decls {
			owner := "a package-level declaration"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				owner = funcDeclName(fd)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || allowed[sel.Sel.Name] == nil {
					return true
				}
				seen[owner] = true
				if !allowed[sel.Sel.Name][owner] {
					t.Errorf("%s: %s calls %s; apply the rule through Engine.next", fset.Position(call.Pos()), owner, sel.Sel.Name)
				}
				return true
			})
		}
	})
	if !seen["Engine.next"] {
		t.Error("no rule application found in internal/sim's Engine.next; the guard checks nothing")
	}
}

// funcDeclName returns a function's name, qualified by its receiver's base
// type for a method ("Engine.next").
func funcDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok {
		typ = idx.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// walkNonTestGo parses every non-test .go file under the repository root,
// hidden and testdata directories excluded, and hands each to fn with its
// slash-separated path.
func walkNonTestGo(t *testing.T, fset *token.FileSet, fn func(path string, f *ast.File)) {
	t.Helper()
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
		fn(filepath.ToSlash(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
