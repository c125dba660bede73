package engine

import (
	"errors"
	"fmt"
)

// The validated options layer. The With* functional options only record
// values; every error-returning batch entry point (Run, Estimate, Sweep,
// Soundness) resolves them through buildValidated, which cross-checks the
// combination against the scheme before any work starts and returns a
// typed *OptionError instead of silently misbehaving. Verify keeps its
// no-error signature: it clamps rather than rejects (an uncapped round for
// m <= 0), as its callers are adversarial fan-outs that never pass
// caller-controlled options.

// ErrOption is the sentinel wrapped by every option-validation failure;
// match with errors.Is.
var ErrOption = errors.New("engine: invalid option")

// OptionError reports which option was rejected and why. It unwraps to
// ErrOption.
type OptionError struct {
	Option string // the offending With* option, e.g. "WithMaxSE"
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("engine: invalid option %s: %s", e.Option, e.Reason)
}

func (e *OptionError) Unwrap() error { return ErrOption }

func optionErr(option, format string, args ...any) error {
	return &OptionError{Option: option, Reason: fmt.Sprintf(format, args...)}
}

// buildValidated resolves the options and cross-checks them against the
// scheme. s may be nil when no scheme is known at entry (Sweep constructs
// its schemes per point); scheme-dependent checks are then skipped.
func buildValidated(s Scheme, opts []Option) (options, error) {
	o := buildOptions(opts)
	if o.trials < 0 {
		return o, optionErr("WithTrials", "negative trial count %d", o.trials)
	}
	if o.parallelism < 0 {
		return o, optionErr("WithParallelism", "negative worker count %d (use 0 for GOMAXPROCS)", o.parallelism)
	}
	if o.assignments <= 0 {
		return o, optionErr("WithAssignments", "non-positive assignment count %d", o.assignments)
	}
	if o.maxSE < 0 {
		return o, optionErr("WithMaxSE", "negative interval half-width %g", o.maxSE)
	}
	if o.multiplicity < 0 {
		return o, optionErr("WithMultiplicity", "negative multiplicity cap %d (use 0 for unconstrained)", o.multiplicity)
	}
	if s != nil {
		if o.maxSE > 0 && s.Deterministic() {
			return o, optionErr("WithMaxSE",
				"scheme %s is coin-free: every trial is the same execution — collapse the budget to one trial instead of early-stopping", s.Name())
		}
	}
	return o, nil
}
