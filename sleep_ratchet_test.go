package lbc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// maxTestSleeps caps the time.Sleep calls in this module's tests. A
// sleep in a test guesses how long something takes; a test that polls
// its condition or blocks on a channel does not. Lower the cap when a
// sleep goes; do not raise it.
const maxTestSleeps = 26

// TestSleepRatchet parses every _test.go file of the module (nested
// modules such as cmd/lbcload are their own and are skipped) and counts
// its time.Sleep calls against maxTestSleeps.
func TestSleepRatchet(t *testing.T) {
	fset := token.NewFileSet()
	var sites []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		timePkg := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Sleep" {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == timePkg {
				sites = append(sites, fset.Position(call.Pos()).String())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) > maxTestSleeps {
		t.Fatalf("%d time.Sleep calls in tests, cap %d:\n%s",
			len(sites), maxTestSleeps, strings.Join(sites, "\n"))
	}
	t.Logf("%d time.Sleep calls in tests (cap %d)", len(sites), maxTestSleeps)
}
