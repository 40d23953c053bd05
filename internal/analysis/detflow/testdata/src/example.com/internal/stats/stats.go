// Package stats seeds one of each source the depth-0 scan must find in a
// result-producing package, including the ones outside function bodies.
package stats

import (
	"fmt"
	"math/rand"
	"time"
)

// seedAt reads the clock in a package-level initializer.
var seedAt = time.Now() // want `time.Now in result-producing code`

// Jitter takes a random source through its signature.
func Jitter(r *rand.Rand) int64 { // want `math/rand in result-producing code`
	return seedAt.UnixNano() + int64(r.Int())
}

// Mean sums floats in map iteration order.
func Mean(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `floating-point accumulation into sum in map iteration order`
	}
	return sum / float64(len(m))
}

// Render hands a map to fmt.
func Render(m map[string]int) string {
	return fmt.Sprint(m) // want `map passed to fmt.Sprint`
}

// Elapsed reads the clock directly.
func Elapsed() time.Duration {
	start := time.Now()      // want `time.Now in result-producing code`
	return time.Since(start) // want `time.Since in result-producing code`
}
