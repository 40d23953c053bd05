package leakage

import (
	"fmt"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// Evaluation reports how a policy performed over one interval distribution.
type Evaluation struct {
	Policy   string
	Energy   float64 // leakage + transition + induced-miss energy spent
	Baseline float64 // energy of the always-active cache over the same span
	// Savings is the paper's y-axis: the fraction of total leakage power
	// removed versus a cache whose lines are constantly active.
	Savings float64
}

// String renders the evaluation the way the paper quotes numbers.
func (e Evaluation) String() string {
	return fmt.Sprintf("%s: %.1f%% leakage savings", e.Policy, e.Savings*100)
}

// Evaluate folds the policy over every interval in the distribution and
// compares against the always-active baseline (Pactive x frames x cycles).
func Evaluate(t power.Technology, d *interval.Distribution, p Policy) (Evaluation, error) {
	if err := t.Validate(); err != nil {
		return Evaluation{}, err
	}
	if d == nil {
		return Evaluation{}, ErrNilDistribution
	}
	if p == nil {
		return Evaluation{}, ErrNilPolicy
	}
	baseline := t.PActive * float64(d.Mass())
	if baseline == 0 {
		return Evaluation{}, fmt.Errorf("%w: zero mass", ErrEmptyDistribution)
	}
	var energy float64
	d.Each(func(length uint64, flags interval.Flags, count uint64) bool {
		energy += p.IntervalEnergy(t, length, flags) * float64(count)
		return true
	})
	return Evaluation{
		Policy:   p.Name(),
		Energy:   energy,
		Baseline: baseline,
		Savings:  1 - energy/baseline,
	}, nil
}
