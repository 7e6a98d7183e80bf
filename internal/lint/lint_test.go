package lint_test

import (
	"path/filepath"
	"testing"

	"cyclesql/internal/lint"
	"cyclesql/internal/lint/linttest"
)

func fixtures(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, fixtures(t), lint.CtxFlow,
		"cyclesql/internal/core/ctxfix",
		"cyclesql/internal/other",
	)
}

func TestStageErr(t *testing.T) {
	linttest.Run(t, fixtures(t), lint.StageErr,
		"cyclesql/internal/stagefix",
	)
}

func TestSnapFrozen(t *testing.T) {
	linttest.Run(t, fixtures(t), lint.SnapFrozen,
		"cyclesql/internal/snapfix",
	)
}

func TestReleased(t *testing.T) {
	linttest.Run(t, fixtures(t), lint.Released,
		"cyclesql/internal/relfix",
	)
}

func TestLockOrder(t *testing.T) {
	linttest.Run(t, fixtures(t), lint.LockOrder,
		"cyclesql/internal/storage",
		"cyclesql/internal/lockfix",
	)
}

func TestNoSleep(t *testing.T) {
	linttest.Run(t, fixtures(t), lint.NoSleep,
		"cyclesql/internal/sleepfix",
	)
}

func TestBoundedCache(t *testing.T) {
	linttest.Run(t, fixtures(t), lint.BoundedCache,
		"cyclesql/internal/serve/cachefix",
		"cyclesql/internal/other",
	)
}

func TestDirectiveHygiene(t *testing.T) {
	linttest.Run(t, fixtures(t), lint.NoSleep,
		"cyclesql/internal/badallow",
	)
}
