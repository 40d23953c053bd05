package cpu

import (
	"context"
	"testing"

	"leakbound/internal/sim/cache"
	"leakbound/internal/sim/trace"
	"leakbound/internal/workload"
)

// TestInlineWalkMatchesHierarchy pins flushGroup's inline L1→L2 walk to
// Hierarchy.Fetch/Data, the two being separate code: every event of every
// built-in benchmark is replayed through a fresh hierarchy, and each
// outcome (frame, hit, whether L2 was used) must match what the CPU model
// emitted, as must the final statistics of all three caches.
func TestInlineWalkMatchesHierarchy(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			replay, err := cache.NewHierarchy(cache.AlphaLike())
			if err != nil {
				t.Fatal(err)
			}
			var (
				events  int
				pending *cache.AccessResult // L2 outcome the next event must match
				failed  bool
			)
			check := func(e trace.Event, r cache.AccessResult) {
				if uint32(r.Frame) != e.Frame || r.Hit == e.Miss {
					t.Errorf("event %d %+v: hierarchy frame %d hit %v", events, e, r.Frame, r.Hit)
					failed = true
				}
			}
			res, err := runEvents(context.Background(), workload.MustNew(name, 0.05), newHier(t), DefaultConfig(), func(e trace.Event) {
				defer func() { events++ }()
				if failed {
					return
				}
				if pending != nil {
					if e.Cache != trace.L2 {
						t.Errorf("event %d %+v: want the L2 event of the preceding L1 miss", events, e)
						failed = true
						return
					}
					check(e, *pending)
					pending = nil
					return
				}
				var out cache.AccessOutcome
				switch e.Cache {
				case trace.L1I:
					out = replay.Fetch(e.PC)
				case trace.L1D:
					out = replay.Data(e.LineAddr << 6)
				default:
					t.Errorf("event %d %+v: L2 event without an L1 miss", events, e)
					failed = true
					return
				}
				check(e, out.L1)
				if out.L2Used {
					pending = &out.L2
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if failed {
				return // the replay stopped at the first mismatch
			}
			if pending != nil {
				t.Error("stream ended before the L2 event of the last L1 miss")
			}
			if events == 0 {
				t.Fatal("no events")
			}
			for _, c := range []struct {
				name      string
				sim, want cache.Stats
			}{
				{"L1I", res.L1I, replay.L1I().Stats()},
				{"L1D", res.L1D, replay.L1D().Stats()},
				{"L2", res.L2, replay.L2().Stats()},
			} {
				if c.sim != c.want {
					t.Errorf("%s stats: CPU %+v, hierarchy %+v", c.name, c.sim, c.want)
				}
			}
		})
	}
}
