package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestDriverEmitsFromOneFile keeps the driver's event stream single: outside
// emit.go, whose emit function is the driver's only exit, no non-test driver
// source may name a stream consumer (opts.Audit, d.opts.Metrics, o.OnEvent,
// ...), since that would be a second emission path. Package-qualified names
// such as the type obs.Audit are not consumers.
func TestDriverEmitsFromOneFile(t *testing.T) {
	consumers := map[string]bool{"Audit": true, "Metrics": true, "OnEvent": true}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join(repoRoot(t), "internal", "driver"), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && fi.Name() != "emit.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs { //maporder:ok one package; each violation is reported on its own
		for _, file := range pkg.Files { //maporder:ok each violation is reported on its own
			imported := map[string]bool{}
			for _, imp := range file.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				imported[path.Base(p)] = true
			}
			ast.Inspect(file, func(n ast.Node) bool {
				se, ok := n.(*ast.SelectorExpr)
				if !ok || !consumers[se.Sel.Name] {
					return true
				}
				if id, ok := se.X.(*ast.Ident); !ok || !imported[id.Name] {
					t.Errorf("%s: driver stream consumer .%s named outside emit.go", fset.Position(se.Pos()), se.Sel.Name)
				}
				return true
			})
		}
	}
}
