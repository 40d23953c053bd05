package interval

import "errors"

// Sentinel errors for the conditions callers are expected to branch on.
// They are always returned wrapped (via %w) with situational detail, so
// match them with errors.Is rather than comparing messages.
var (
	// ErrOutOfOrder reports an event whose cycle precedes an already
	// accepted event; collectors require non-decreasing cycle order.
	ErrOutOfOrder = errors.New("interval: event out of cycle order")

	// ErrFinished reports use of a collector after Finish.
	ErrFinished = errors.New("interval: collector already finished")

	// ErrFrameRange reports an event whose frame index does not exist in
	// the collected cache.
	ErrFrameRange = errors.New("interval: frame out of range")

	// ErrHorizon reports a Finish horizon earlier than the last event.
	ErrHorizon = errors.New("interval: horizon before last event")
)
