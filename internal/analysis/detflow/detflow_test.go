package detflow_test

import (
	"testing"

	"leakbound/internal/analysis/analysistest"
	"leakbound/internal/analysis/detflow"
)

func TestDetflow(t *testing.T) {
	analysistest.Run(t, "testdata", detflow.Analyzer,
		"example.com/internal/leakage",
		"example.com/internal/other",
		"example.com/internal/stats",
		"example.com/store",
	)
}
