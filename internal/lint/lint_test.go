package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestMapOrder(t *testing.T) {
	linttest.Run(t, "testdata", lint.MapOrderAnalyzer,
		"maporder",               // general idioms
		"internal/summary/codec", // serializer-shaped cases (histogram emission)
		"internal/intern",        // key-interning tables (index-only is clean)
		"internal/query",         // top-k truncation over signature maps
	)
}

func TestNonDeterm(t *testing.T) {
	linttest.Run(t, "testdata", lint.NonDetermAnalyzer,
		"internal/miner",               // true positives + telemetry idioms
		"webui",                        // negative: outside the internal/ scope
		"internal/experiments/harness", // negative: exempted harness package
		"internal/summary/merge",       // merge-shaped cases (artifact stamping)
	)
}

func TestRawGoroutine(t *testing.T) {
	linttest.Run(t, "testdata", lint.RawGoroutineAnalyzer,
		"internal/pipeline", // true positives + escape hatch
		"internal/graph",    // negative: sanctioned package
		"internal/core",     // negative: sanctioned parallel.go file
		"internal/parallel", // negative: sanctioned ordered fan-out package
		"internal/ingest",   // batched-pipeline shapes outside the pool file
		"internal/server",   // negative: sanctioned serving layer (flight/deadline/listener shapes)
		"internal/storage",  // negative: sanctioned storage engine (WAL writer/compactor owners)
	)
}

func TestAtomicMix(t *testing.T) {
	linttest.Run(t, "testdata", lint.AtomicMixAnalyzer, "atomicmix")
}

func TestKeyCoverage(t *testing.T) {
	linttest.Run(t, "testdata", lint.KeyCoverageAnalyzer, "keycoverage")
}

func TestErrWrap(t *testing.T) {
	linttest.Run(t, "testdata", lint.ErrWrapAnalyzer, "internal/errwrap")
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, "testdata", lint.CtxFlowAnalyzer,
		"internal/server/ctxflow", // positives + deliberate-detach suppression
		"internal/server",         // negative: the serving fixtures carry no detached contexts
	)
}

func TestLockHold(t *testing.T) {
	linttest.Run(t, "testdata", lint.LockHoldAnalyzer, "internal/lockhold")
}

func TestWGBalance(t *testing.T) {
	linttest.Run(t, "testdata", lint.WGBalanceAnalyzer, "internal/wgbalance")
}

func TestRetryBound(t *testing.T) {
	linttest.Run(t, "testdata", lint.RetryBoundAnalyzer,
		"internal/cluster/retry", // positives, counted/range/timer negatives, escape hatch
		"internal/clusterjobs",   // negative: path boundary keeps it out of scope
	)
}
