// Package other is not a result-producing package and nothing here is a
// sink, so the analyzer must stay silent even for constructs it would
// flag in internal/leakage.
package other

import "time"

// Clock is allowed: serving and telemetry code may read the wall clock.
func Clock() int64 {
	return time.Now().Unix()
}
