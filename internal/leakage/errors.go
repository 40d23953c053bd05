package leakage

import "errors"

// Sentinel errors for the conditions callers branch on. Match with
// errors.Is — the error may be wrapped with situational detail — instead
// of comparing message strings.
var (
	// ErrNilDistribution reports evaluation over a nil distribution.
	ErrNilDistribution = errors.New("leakage: nil distribution")

	// ErrNilPolicy reports evaluation with a nil policy.
	ErrNilPolicy = errors.New("leakage: nil policy")

	// ErrNoClosedForm reports an aggregate-kernel evaluation (EvaluateMany,
	// Compile) of a policy with no piecewise-affine energy curve: only
	// this package's policies have one. Evaluate takes any policy.
	ErrNoClosedForm = errors.New("leakage: policy has no closed form")

	// ErrEmptyDistribution reports evaluation over a distribution with
	// zero mass (no frame-cycles): there is no baseline to compare
	// against.
	ErrEmptyDistribution = errors.New("leakage: empty distribution")

	// ErrUnknownScheme reports a policy-spec scheme name with no
	// registration.
	ErrUnknownScheme = errors.New("leakage: unknown scheme")

	// ErrDuplicateScheme reports a second registration under a name the
	// registry already holds.
	ErrDuplicateScheme = errors.New("leakage: duplicate scheme")

	// ErrBadParam reports a malformed, unknown, duplicate, or
	// out-of-range policy parameter.
	ErrBadParam = errors.New("leakage: bad policy parameter")

	// ErrNoMissModel reports an induced-miss query against a policy that
	// does not implement MissModel.
	ErrNoMissModel = errors.New("leakage: policy has no miss model")
)
