package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// cacheSubjectPrefixes are the response-cache key namespaces. Keys
// must be built from the shared Subject* constants so the event-side
// invalidation and the reader-side fills can never drift apart one
// literal at a time.
var cacheSubjectPrefixes = []string{"disc|", "home|", "trends|", "leader|"}

// CacheCoherence enforces the part of the dissenterweb cache contract
// that is a convention: cache-subject strings come from the shared
// constants, never fresh literals at call sites. (That every store
// write reaches the cache is not a convention — the server's event
// view runs coherence for any write, see dissenterweb/coherence.go.)
// Test files are exempt: tests probe cache state by key on purpose.
var CacheCoherence = &Analyzer{
	Name: "cachecoherence",
	Doc:  "dissenterweb cache-subject keys come from the shared Subject* constants, not fresh literals",
	Run:  runCacheCoherence,
}

func runCacheCoherence(pass *Pass) error {
	if !pkgPathHasSuffix(pass.Pkg, "internal/dissenterweb") {
		return nil
	}

	// Fresh cache-subject literals outside const declarations.
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

	return nil
}
