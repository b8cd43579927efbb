// Package linttest runs internal/lint analyzers over GOPATH-style
// fixture trees, in the manner of golang.org/x/tools/go/analysis/
// analysistest: each fixture package lives under testdata/src/<path>,
// imports resolve against the same tree (including stub stdlib
// packages like sync and os), and expected diagnostics are declared in
// the fixture source as trailing comments:
//
//	s.db.Vote(1, 1, 0) // want `DB\.Vote in handleVote without response-cache coherence`
//
// A want comment holds one or more Go-quoted regular expressions; each
// must match exactly one diagnostic reported on its line. A fixture
// with no want comments asserts the analyzer is silent on it.
package linttest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dissenter/internal/lint"
)

// Run loads the fixture package at srcRoot/pkgPath, type-checks it
// against the fixture tree, executes the analyzers, and diffs the
// diagnostics against the package's want comments.
func Run(t *testing.T, srcRoot, pkgPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	root, err := filepath.Abs(srcRoot)
	if err != nil {
		t.Fatal(err)
	}
	l := &loader{root: root, fset: token.NewFileSet(), pkgs: map[string]*fixturePkg{}}
	p, err := l.load(pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgPath, err)
	}
	diags, err := lint.Run(l.fset, p.files, p.pkg, p.info, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", pkgPath, err)
	}
	wants := collectWants(t, l.fset, p.files)

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s: %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.raw)
		}
	}
}

// fixturePkg is one loaded-and-checked fixture package.
type fixturePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	err   error
}

type loader struct {
	root string
	fset *token.FileSet
	pkgs map[string]*fixturePkg
}

func (l *loader) load(path string) (*fixturePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, p.err
	}
	p := &fixturePkg{}
	l.pkgs[path] = p

	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		p.err = err
		return p, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		p.err = fmt.Errorf("no Go files in %s", dir)
		return p, p.err
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			p.err = err
			return p, err
		}
		p.files = append(p.files, f)
	}

	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: fixtureImporter{l}}
	p.pkg, p.err = conf.Check(path, l.fset, p.files, p.info)
	return p, p.err
}

// fixtureImporter resolves fixture imports against the fixture tree
// itself, so stub dependencies (sync, os, dissenter/internal/...)
// come from testdata/src, never the real packages.
type fixtureImporter struct{ l *loader }

func (i fixtureImporter) Import(path string) (*types.Package, error) {
	p, err := i.l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for {
					rest = strings.TrimSpace(rest)
					if rest == "" {
						break
					}
					quoted, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s:%d: malformed want comment at %q: %v", pos.Filename, pos.Line, rest, err)
					}
					pattern, err := strconv.Unquote(quoted)
					if err != nil {
						t.Fatalf("%s:%d: unquoting %q: %v", pos.Filename, pos.Line, quoted, err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: pattern})
					rest = rest[len(quoted):]
				}
			}
		}
	}
	return wants
}
