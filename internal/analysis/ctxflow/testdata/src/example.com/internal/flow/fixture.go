// Package flow is a ctxflow fixture: an internal library package whose
// operations each have one ctx-taking entry point.
package flow

import "context"

// DoContext is the context-aware entry point.
func DoContext(ctx context.Context, n int) error { return ctx.Err() }

// Do is a non-ctx wrapper around its own ...Context sibling: a second
// name for the same operation, so it is flagged like any other minted
// background context.
func Do(n int) error {
	return DoContext(context.Background(), n) // want `context.Background in library package`
}

// Todo flags the TODO spelling the same way.
func Todo() error {
	ctx := context.TODO() // want `context.TODO in library package`
	return DoContext(ctx, 1)
}

// Handle passes its caller's ctx down: fine.
func Handle(ctx context.Context) error { return DoContext(ctx, 1) }

// Suppressed shows a justified escape hatch.
func Suppressed() error {
	//lint:ignore ctxflow fixture: fire-and-forget cleanup must not inherit cancellation
	return DoContext(context.Background(), 2)
}
