package lint_test

import (
	"testing"

	"dissenter/internal/lint"
	"dissenter/internal/lint/linttest"
)

const src = "testdata/src"

func TestViewPurity(t *testing.T) {
	linttest.Run(t, src, "viewpurity/bad", lint.ViewPurity)
	linttest.Run(t, src, "viewpurity/ok", lint.ViewPurity)
}

func TestCacheCoherence(t *testing.T) {
	linttest.Run(t, src, "cohbad/internal/dissenterweb", lint.CacheCoherence)
	linttest.Run(t, src, "cohok/internal/dissenterweb", lint.CacheCoherence)
}

func TestLockScope(t *testing.T) {
	linttest.Run(t, src, "lockbad/internal/platform", lint.LockScope)
	linttest.Run(t, src, "lockok/internal/platform", lint.LockScope)
}
