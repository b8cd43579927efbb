// Command dissenter-vet runs the project's three static analyzers
// (internal/lint) under the `go vet -vettool` unitchecker protocol:
//
//	go build -o bin/dissenter-vet ./cmd/dissenter-vet
//	go vet -vettool=bin/dissenter-vet ./...
//
// The go command invokes the tool once per package with a JSON .cfg
// file naming the package's sources and the export data of every
// dependency; the tool typechecks the unit against that export data
// (no network, no module resolution), runs the analyzers, prints any
// diagnostics as file:line:col lines on stderr, and exits 2 so the go
// command reports failure. Packages outside this module arrive as
// VetxOnly (facts-only) units and are skipped.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dissenter/internal/lint"
)

func main() {
	args := os.Args[1:]
	for _, arg := range args {
		switch {
		case arg == "-V=full" || arg == "-V":
			// The go command caches vet results keyed by this line;
			// hashing the executable invalidates them on rebuild.
			fmt.Printf("%s version %s\n", progName(), buildID())
			return
		case arg == "-flags":
			// No analyzer flags: the suite always runs whole.
			fmt.Println("[]")
			return
		}
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintf(os.Stderr, "usage: %s [-V=full | -flags | package.cfg]\n", progName())
		os.Exit(2)
	}
	diags, err := runUnit(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progName(), err)
		os.Exit(1)
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
		}
		os.Exit(2)
	}
}

func progName() string {
	return strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe")
}

func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// vetConfig is the subset of the go command's vet configuration file
// the tool consumes (cmd/go/internal/work writes it; the field set
// matches x/tools' unitchecker.Config).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

func runUnit(cfgPath string) ([]lint.Diagnostic, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", cfgPath, err)
	}
	// The go command expects the facts file to exist on success even
	// though this suite exports none.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil // dependency unit: facts only, nothing to report
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Error:     func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(cfg.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, fmt.Errorf("typechecking %s: %v", cfg.ImportPath, typeErrs[0])
	}
	return lint.Run(fset, files, pkg, info, lint.Analyzers())
}
