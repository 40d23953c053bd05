// Package store is not a result package, but its Digest method is a sink
// by name: digests must be reproducible wherever they are computed.
package store

import (
	"time"

	"example.com/util"
)

// Store owns a content digest.
type Store struct {
	entries []string
}

// Digest is a sink by name.
func (s *Store) Digest() int64 {
	return util.Wrap() // want `call chain reaches time.Now \(via util.Wrap → util.Stamp\)`
}

// List is neither in a result package nor a Digest: tainted calls here
// are not findings.
func (s *Store) List(m map[string]int) []string {
	return util.Collect(m)
}

// Stamped is a Digest that reads the clock itself: outside a result
// package, a Digest's own sources are reported where they sit.
type Stamped struct{}

// Digest is a sink by name with a direct source.
func (Stamped) Digest() int64 {
	return time.Now().UnixNano() // want `time.Now in result-producing code`
}
