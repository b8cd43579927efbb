package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// dbMutators are the five DB write methods whose effects render into
// cached pages. RegisterView is deliberately absent here: registering
// a view mutates nothing a cached page shows.
var dbMutators = map[string]bool{
	"AddUser":    true,
	"SubmitURL":  true,
	"AddComment": true,
	"AddFollow":  true,
	"Vote":       true,
}

// coherenceMethods are the respcache.Cache operations that uphold the
// read-your-write contract after a store write: drop the entry, patch
// it in place, or refill through the tombstone protocol.
var coherenceMethods = map[string]bool{
	"Invalidate":   true,
	"UpdateRev":    true,
	"GetOrFillRev": true,
}

// cacheSubjectPrefixes are the response-cache key namespaces from the
// PR 2/PR 5 coherence design. Keys must be built from the shared
// Subject* constants so the writer-side invalidation and the
// reader-side fills can never drift apart one literal at a time.
var cacheSubjectPrefixes = []string{"disc|", "home|", "trends|", "leader|"}

// CacheCoherence enforces the dissenterweb write/cache contract:
// (1) any function that calls a DB mutation must, in the same body,
// also perform response-cache coherence — directly or by calling a
// package helper that (transitively) does; (2) cache-subject strings
// must come from shared constants, never fresh literals at call sites.
// Test files are exempt: tests probe cache state by key on purpose.
var CacheCoherence = &Analyzer{
	Name: "cachecoherence",
	Doc:  "every dissenterweb DB mutation must pair with respcache coherence in the same function; subject keys come from shared constants",
	Run:  runCacheCoherence,
}

func runCacheCoherence(pass *Pass) error {
	if !pkgPathHasSuffix(pass.Pkg, "internal/dissenterweb") {
		return nil
	}

	// Rule 2: fresh cache-subject literals outside const declarations.
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		var constRanges [][2]token.Pos
		ast.Inspect(f, func(n ast.Node) bool {
			if gd, ok := n.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				constRanges = append(constRanges, [2]token.Pos{gd.Pos(), gd.End()})
			}
			return true
		})
		inConst := func(pos token.Pos) bool {
			for _, r := range constRanges {
				if r[0] <= pos && pos < r[1] {
					return true
				}
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			for _, p := range cacheSubjectPrefixes {
				if strings.HasPrefix(s, p) {
					if !inConst(lit.Pos()) {
						pass.Reportf(lit.Pos(),
							"cache-subject literal %q at a call site; build keys from the shared Subject* constants and helpers (cachekeys.go)", s)
					}
					break
				}
			}
			return true
		})
	}

	// Rule 1: mutation ⇒ coherence in the same function body.
	type badCall struct {
		pos  token.Pos
		name string
	}
	type fnInfo struct {
		name      string
		coherent  bool // body performs a respcache coherence call
		calls     []*types.Func
		mutations []badCall
	}

	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	infos := map[*types.Func]*fnInfo{}
	for fn, fd := range decls {
		fi := &fnInfo{name: fn.Name()}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(pass.TypesInfo, call)
			if obj == nil {
				return true
			}
			switch {
			case isMethodOn(obj, "internal/platform", "DB", dbMutators):
				fi.mutations = append(fi.mutations, badCall{call.Pos(), obj.Name()})
			case isMethodOn(obj, "internal/respcache", "Cache", coherenceMethods):
				fi.coherent = true
			default:
				if callee, ok := obj.(*types.Func); ok {
					if _, declared := decls[callee]; declared {
						fi.calls = append(fi.calls, callee)
					}
				}
			}
			return true
		})
		infos[fn] = fi
	}

	// Propagate coherence through package helpers to a fixpoint: a
	// function that calls a coherence-performing helper is coherent.
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			if fi.coherent {
				continue
			}
			for _, callee := range fi.calls {
				if ci := infos[callee]; ci != nil && ci.coherent {
					fi.coherent = true
					changed = true
					break
				}
			}
		}
	}

	for _, fi := range infos {
		if fi.coherent {
			continue
		}
		for _, m := range fi.mutations {
			pass.Reportf(m.pos,
				"DB.%s in %s without response-cache coherence: call Invalidate/UpdateRev/GetOrFillRev (directly or via a package helper) in the same function, or a reader can be served pre-write page state",
				m.name, fi.name)
		}
	}
	return nil
}
