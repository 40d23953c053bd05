package hotalloc_test

import (
	"testing"

	"leakbound/internal/analysis/analysistest"
	"leakbound/internal/analysis/hotalloc"
)

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, "testdata", hotalloc.Analyzer,
		"example.com/hot/pipe",
		"example.com/internal/workload/spec",
	)
}

// TestChainIsDeterministic: which call edge a reported chain runs
// through decides which //lint:ignore it meets, so it must not depend on
// map iteration order. Repeated runs give the order every chance to vary.
func TestChainIsDeterministic(t *testing.T) {
	for i := 0; i < 20 && !t.Failed(); i++ {
		analysistest.Run(t, "testdata", hotalloc.Analyzer, "example.com/hot/fallback")
	}
}
