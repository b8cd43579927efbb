// Package lint holds dissenter's project-specific static analyzers and
// the minimal analysis framework they run on. The framework mirrors
// the golang.org/x/tools/go/analysis API surface (Analyzer, Pass,
// Reportf) but is built on the standard library alone — go/ast,
// go/types, go/importer — because this module deliberately carries no
// third-party dependencies. cmd/dissenter-vet adapts the suite to the
// go vet -vettool unitchecker protocol so `go vet
// -vettool=$(dissenter-vet) ./...` runs it over every package; `make
// lint` and CI do exactly that.
//
// The three analyzers turn the repository's load-bearing conventions —
// previously enforced only by review and runtime tests — into build
// failures:
//
//   - viewpurity: platform.View Apply/Rebuild implementations, and
//     everything reachable from them inside their package, must not
//     call the DB write path (AddUser, SubmitURL, AddComment,
//     AddFollow, Vote, RegisterView, ApplyEvent). Apply already runs
//     inside dispatch; writing re-enters the pipeline under its own
//     locks.
//
//   - cachecoherence: in internal/dissenterweb, cache-subject strings
//     (disc|, home|, trends|, leader|) must come from the shared
//     Subject* constants in cachekeys.go, never fresh literals. (That
//     a store write reaches the cache is not a convention to check:
//     the server's event view, dissenterweb/coherence.go, runs for
//     every write.)
//
//   - lockscope: in internal/platform and internal/respcache, no
//     caller-supplied callbacks, channel operations, or I/O while a
//     shard/segment mutex is held, and every Lock/RLock must be
//     matched by a defer or a same-block unlock.
//
// A construct an analyzer would flag but that is correct by documented
// design is suppressed in place with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line above it. The reason is
// mandatory; the directive applies only to the named analyzer.
package lint
