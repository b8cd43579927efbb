package lint

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check over a type-checked package. It mirrors
// the shape of golang.org/x/tools/go/analysis.Analyzer, reimplemented
// on the standard library alone because this module carries no
// third-party dependencies.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is the one-line rule statement.
	Doc string
	// Run inspects the package carried by the Pass and reports
	// violations through Pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	analyzer string
	diags    []Diagnostic
}

// Diagnostic is one reported violation, position-resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the project's three analyzers in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{ViewPurity, CacheCoherence, LockScope}
}

// Run executes the analyzers over one type-checked package and returns
// the surviving diagnostics sorted by position. Diagnostics on the
// same line as a "//lint:ignore <analyzer> <reason>" directive, or on
// the line immediately below one, are suppressed — the directive is
// the escape hatch for invariant-owning code whose whole point is the
// flagged construct (e.g. shardedMap.update runs its callback under
// the shard lock by documented design).
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	ig := collectIgnores(fset, files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, analyzer: a.Name}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
		for _, d := range pass.diags {
			if ig.suppressed(a.Name, d.Pos) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// ignoreSet indexes //lint:ignore directives: filename → line →
// analyzer names suppressed there.
type ignoreSet map[string]map[int][]string

func collectIgnores(fset *token.FileSet, files []*ast.File) ignoreSet {
	ig := ignoreSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 { // analyzer name plus a reason, both required
					continue
				}
				pos := fset.Position(c.Pos())
				m := ig[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					ig[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], strings.Split(fields[0], ",")...)
			}
		}
	}
	return ig
}

func (ig ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	m := ig[pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, name := range m[line] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// --- shared helpers ----------------------------------------------------

// pkgPathHasSuffix reports whether pkg's import path is suffix or ends
// in "/"+suffix. Suffix matching (rather than equality) lets the
// analyzers recognize both the real packages ("dissenter/internal/...")
// and test fixtures loaded under synthetic path roots.
func pkgPathHasSuffix(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// importWithSuffix returns the direct import of pkg whose path ends in
// suffix, or nil.
func importWithSuffix(pkg *types.Package, suffix string) *types.Package {
	for _, imp := range pkg.Imports() {
		if pkgPathHasSuffix(imp, suffix) {
			return imp
		}
	}
	return nil
}

// calleeObject resolves the object a call expression invokes: the
// *types.Func for direct function/method calls, a *types.Var for calls
// through a function-valued variable or field, nil for anything it
// cannot name (interface-typed expressions, builtins resolve to
// *types.Builtin).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel] // qualified identifier: pkg.Func
	}
	return nil
}

// isMethodOn reports whether obj is a method whose name is in names
// and whose receiver's base type is <pkg ending in pkgSuffix>.typeName.
func isMethodOn(obj types.Object, pkgSuffix, typeName string, names map[string]bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok || !names[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return tn.Name() == typeName && tn.Pkg() != nil && pkgPathHasSuffix(tn.Pkg(), pkgSuffix)
}

// exprString renders an expression back to source text; used to match
// Lock/Unlock receivers textually (same spelling ⇒ same mutex).
func exprString(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, e); err != nil {
		return fmt.Sprintf("%T", e)
	}
	return sb.String()
}

// isTestFile reports whether the file behind f is a _test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}
