// Package util holds the nondeterminism sources the sink fixtures reach
// through call chains. No findings are reported here — taint is reported
// at the sink boundary.
package util

import (
	"sort"
	"time"
)

// Stamp is a direct clock source.
func Stamp() time.Time { return time.Now() }

// Wrap is one call away from the source, so sinks calling it are two
// calls deep.
func Wrap() int64 { return Stamp().UnixNano() }

// Sanctioned reads the clock under a reviewed detflow suppression:
// the site does not taint.
func Sanctioned() int64 {
	//lint:ignore detflow timing feeds a local log only, never results
	t := time.Now()
	return t.UnixNano()
}

// Collect appends in map iteration order without sorting.
func Collect(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// CollectSorted follows the collect-then-sort contract and stays clean.
func CollectSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
