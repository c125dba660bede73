package engine_test

import (
	"errors"
	"strings"
	"testing"

	"rpls/internal/engine"
	"rpls/internal/experiments"
	"rpls/internal/schemes/spanningtree"
	"rpls/internal/schemes/uniform"
)

// The validated options layer: every error-returning batch entry point
// rejects a bad option combination with a typed *OptionError that unwraps
// to ErrOption and names the offending With* option, before any round
// runs.

func TestOptionValidation(t *testing.T) {
	cfg := experiments.BuildUniformConfig(8, 16, 1)
	rand := engine.FromRPLS(uniform.NewRPLS())
	det := engine.FromPLS(spanningtree.NewPLS())

	cases := []struct {
		name   string
		option string // expected OptionError.Option
		run    func() error
	}{
		{"negative trials", "WithTrials", func() error {
			_, err := engine.Estimate(rand, cfg, engine.WithTrials(-1))
			return err
		}},
		{"negative parallelism", "WithParallelism", func() error {
			_, err := engine.Estimate(rand, cfg, engine.WithTrials(2), engine.WithParallelism(-2))
			return err
		}},
		{"zero assignments", "WithAssignments", func() error {
			_, err := engine.Estimate(rand, cfg, engine.WithTrials(2), engine.WithAssignments(0))
			return err
		}},
		{"negative maxSE", "WithMaxSE", func() error {
			_, err := engine.Estimate(rand, cfg, engine.WithTrials(2), engine.WithMaxSE(-0.1))
			return err
		}},
		{"negative multiplicity", "WithMultiplicity", func() error {
			_, err := engine.Estimate(rand, cfg, engine.WithTrials(2), engine.WithMultiplicity(-1))
			return err
		}},
		{"maxSE on coin-free scheme", "WithMaxSE", func() error {
			_, err := engine.Estimate(det, experiments.BuildTreeConfig(8, 1),
				engine.WithTrials(2), engine.WithMaxSE(0.05))
			return err
		}},
		{"run rejects too", "WithMultiplicity", func() error {
			_, err := engine.Run(rand, cfg, engine.WithMultiplicity(-3))
			return err
		}},
	}
	// Executor names resolve through one table; removed executors and the
	// retired "seq" alias are unknown names.
	for _, name := range []string{"pool", "goroutines", "go", "seq", ""} {
		cases = append(cases, struct {
			name   string
			option string
			run    func() error
		}{"executor " + name, "WithExecutor", func() error {
			_, err := engine.NewExecutor(name)
			return err
		}})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("invalid option accepted")
			}
			if !errors.Is(err, engine.ErrOption) {
				t.Fatalf("error %v does not unwrap to ErrOption", err)
			}
			var oe *engine.OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %v is not a *OptionError", err)
			}
			if oe.Option != tc.option {
				t.Errorf("blamed option %q, want %q (reason: %s)", oe.Option, tc.option, oe.Reason)
			}
		})
	}
}

// TestOptionValidationAcceptsBoundaries pins the permissive edges: zero
// trials, zero parallelism (GOMAXPROCS), and multiplicity zero
// (unconstrained) are all valid.
func TestOptionValidationAcceptsBoundaries(t *testing.T) {
	cfg := experiments.BuildUniformConfig(8, 16, 1)
	rand := engine.FromRPLS(uniform.NewRPLS())
	if _, err := engine.Estimate(rand, cfg, engine.WithTrials(0)); err != nil {
		t.Errorf("zero trials rejected: %v", err)
	}
	if _, err := engine.Estimate(rand, cfg,
		engine.WithTrials(2), engine.WithParallelism(0), engine.WithMultiplicity(0)); err != nil {
		t.Errorf("boundary options rejected: %v", err)
	}
	if got := strings.Join(engine.ExecutorNames(), ","); got != "sequential,batched" {
		t.Errorf("ExecutorNames() = %s, want sequential,batched", got)
	}
	for _, name := range engine.ExecutorNames() {
		if exec, err := engine.NewExecutor(name); err != nil || exec.Name() != name {
			t.Errorf("NewExecutor(%q) = %v, %v; want a %s executor", name, exec, err, name)
		}
	}
}
