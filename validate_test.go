package bounded

import (
	"math"
	"strings"
	"testing"
)

// TestConfigValidate covers every rejection rule and the pass-through
// case.
func TestConfigValidate(t *testing.T) {
	good := Config{N: 1 << 16, Eps: 0.05, Alpha: 4, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"N too small", Config{N: 1, Eps: 0.1, Alpha: 2}, "N must be >= 2"},
		{"N zero", Config{N: 0, Eps: 0.1, Alpha: 2}, "N must be >= 2"},
		{"N too large", Config{N: 1<<44 + 1, Eps: 0.1, Alpha: 2}, "N must be <= 2^44"},
		{"Eps zero", Config{N: 1 << 10, Eps: 0, Alpha: 2}, "Eps must be positive"},
		{"Eps negative", Config{N: 1 << 10, Eps: -0.5, Alpha: 2}, "Eps must be positive"},
		{"Eps too large", Config{N: 1 << 10, Eps: 1.5, Alpha: 2}, "Eps must be below 1"},
		{"Alpha below one", Config{N: 1 << 10, Eps: 0.1, Alpha: 0.5}, "Alpha must be >= 1"},
		{"Alpha zero", Config{N: 1 << 10, Eps: 0.1, Alpha: 0}, "Alpha must be >= 1"},
		{"Eps NaN", Config{N: 1 << 10, Eps: math.NaN(), Alpha: 2}, "Eps must be positive"},
		{"Alpha NaN", Config{N: 1 << 10, Eps: 0.1, Alpha: math.NaN()}, "Alpha must be finite"},
		{"Alpha infinite", Config{N: 1 << 10, Eps: 0.1, Alpha: math.Inf(1)}, "Alpha must be finite"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted %+v", c.name, c.cfg)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// Boundary: exactly 2^44 is allowed.
	edge := Config{N: 1 << 44, Eps: 0.1, Alpha: 1}
	if err := edge.Validate(); err != nil {
		t.Errorf("N = 2^44 should be accepted: %v", err)
	}
}

// TestConstructorsRejectInvalidConfig: every public constructor
// returns the Validate error instead of silently clamping.
func TestConstructorsRejectInvalidConfig(t *testing.T) {
	bad := Config{N: 1 << 10, Eps: 0.1, Alpha: 0.25, Seed: 1}
	ctors := map[string]func() error{
		"NewHeavyHitters":   func() error { _, err := NewHeavyHitters(bad); return err },
		"NewL1Estimator":    func() error { _, err := NewL1Estimator(bad, WithFailureProb(0.1)); return err },
		"NewL0Estimator":    func() error { _, err := NewL0Estimator(bad); return err },
		"NewL1Sampler":      func() error { _, err := NewL1Sampler(bad, WithCopies(4)); return err },
		"NewSupportSampler": func() error { _, err := NewSupportSampler(bad, WithK(8)); return err },
		"NewInnerProduct":   func() error { _, err := NewInnerProduct(bad); return err },
		"NewSyncSketch":     func() error { _, err := NewSyncSketch(bad, WithCapacity(16)); return err },
		"NewL2HeavyHitters": func() error { _, err := NewL2HeavyHitters(bad); return err },
	}
	for name, ctor := range ctors {
		err := ctor()
		if err == nil {
			t.Errorf("%s accepted an invalid config", name)
			continue
		}
		if !strings.Contains(err.Error(), "Alpha must be >= 1") {
			t.Errorf("%s returned %v, want the Validate error", name, err)
		}
	}
}
