// Package benchkit holds what the repository's budgeted benchmarks
// share across packages. Only test files import it.
package benchkit

import (
	"os"
	"strconv"
	"testing"
)

// EnvBudget reads a budget from the environment variable env; ok is
// false when it is unset, which is how the smoke run skips the
// assertions `make bench-budget` makes.
func EnvBudget(b *testing.B, env string) (max float64, ok bool) {
	b.Helper()
	v := os.Getenv(env)
	if v == "" {
		return 0, false
	}
	max, err := strconv.ParseFloat(v, 64)
	if err != nil {
		b.Fatalf("bad %s %q: %v", env, v, err)
	}
	return max, true
}
