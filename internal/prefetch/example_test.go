package prefetch_test

import (
	"fmt"

	"leakbound/internal/prefetch"
	"leakbound/internal/sim/trace"
)

// The hardware stride prefetcher locks onto a constant-stride load after
// two confirmations and predicts the next line — the implementable
// approximation of the paper's oracle (Section 5).
func ExampleEngine() {
	eng, err := prefetch.NewEngine(prefetch.DefaultEngineConfig(prefetch.Config{Stride: true}))
	if err != nil {
		panic(err)
	}
	const pc = 0x400100
	// Four load misses: cycle, line, PC, kind, miss.
	eng.AccessCols(0, 100, pc, trace.Load, true)
	eng.AccessCols(50, 104, pc, trace.Load, true)  // stride 4 observed
	eng.AccessCols(100, 108, pc, trace.Load, true) // stride confirmed -> prefetch 112
	eng.AccessCols(200, 112, pc, trace.Load, true) // the prefetch covers this miss (and issues 116)
	st := eng.Finish()
	fmt.Printf("issued %d, useful %d, coverage %.0f%%\n",
		st.Issued, st.Useful, 100*st.Coverage())
	// Output:
	// issued 2, useful 1, coverage 25%
}
