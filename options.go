package bounded

import "fmt"

// Option configures a structure at construction time. Every constructor
// has the shape NewX(cfg Config, opts ...Option) (*X, error); options
// that do not apply to the structure being built are rejected with a
// descriptive error rather than silently ignored, and out-of-range
// option values error at the WithX call site's constructor rather than
// being clamped (the historical NewL1Estimator silently replaced a bad
// failure probability with 0.1 — that is exactly the bug class this
// design removes).
type Option func(*sketchOptions) error

// sketchOptions accumulates the applied options; Set flags distinguish
// "defaulted" from "explicitly chosen" so constructors can reject
// options that do not apply to them.
type sketchOptions struct {
	strict      bool
	strictSet   bool
	copies      int
	copiesSet   bool
	failureProb float64
	failureSet  bool
	k           int
	kSet        bool
	capacity    int
	capacitySet bool
}

// echo is the options a structure was built with, as its envelope
// carries them and Merge compares them: what the constructor resolved,
// defaults included, with zero in every field the kind does not take —
// so options() rebuilds the same structure from it.
type echo struct {
	general     bool    // WithStrict(false): HeavyHitters, L1Estimator
	copies      int     // L1Sampler
	failureProb float64 // the strict L1Estimator
	k           int     // SupportSampler
	capacity    int     // SyncSketch
}

// options returns the Options that rebuild a structure with echo e.
func (e echo) options() []Option {
	var opts []Option
	if e.general {
		opts = append(opts, WithStrict(false))
	}
	if e.copies != 0 {
		opts = append(opts, WithCopies(e.copies))
	}
	if e.failureProb != 0 {
		opts = append(opts, WithFailureProb(e.failureProb))
	}
	if e.k != 0 {
		opts = append(opts, WithK(e.k))
	}
	if e.capacity != 0 {
		opts = append(opts, WithCapacity(e.capacity))
	}
	return opts
}

// Option names, used for the does-not-apply diagnostics.
const (
	optStrict   = "WithStrict"
	optCopies   = "WithCopies"
	optFailure  = "WithFailureProb"
	optK        = "WithK"
	optCapacity = "WithCapacity"
)

// WithStrict selects between the strict turnstile model (true, the
// default: no prefix frequency ever goes negative, enabling exact
// counters) and the general turnstile model (false: Cauchy-sketch scale
// estimates replace the exact counters). Applies to NewHeavyHitters and
// NewL1Estimator.
func WithStrict(strict bool) Option {
	return func(o *sketchOptions) error {
		o.strict = strict
		o.strictSet = true
		return nil
	}
}

// WithCopies sets the number of parallel sampler instances
// (NewL1Sampler): each succeeds with probability Theta(eps), so
// 2/eps copies — the default — give constant failure probability.
func WithCopies(copies int) Option {
	return func(o *sketchOptions) error {
		if copies < 1 {
			return fmt.Errorf("bounded: WithCopies requires at least one instance, got %d", copies)
		}
		o.copies = copies
		o.copiesSet = true
		return nil
	}
}

// WithFailureProb sets the failure probability delta of the strict
// L1 estimator (NewL1Estimator with WithStrict(true), the default);
// the sample budget grows as 1/delta. delta must lie in (0, 1).
func WithFailureProb(delta float64) Option {
	return func(o *sketchOptions) error {
		if !(delta > 0 && delta < 1) {
			return fmt.Errorf("bounded: WithFailureProb requires delta in (0,1), got %v", delta)
		}
		o.failureProb = delta
		o.failureSet = true
		return nil
	}
}

// WithK sets the number of support coordinates the support sampler
// must recover (NewSupportSampler). The default is 32.
func WithK(k int) Option {
	return func(o *sketchOptions) error {
		if k < 1 {
			return fmt.Errorf("bounded: WithK requires at least one coordinate, got %d", k)
		}
		o.k = k
		o.kSet = true
		return nil
	}
}

// WithCapacity sets the number of differing coordinates a sync sketch
// can recover exactly (NewSyncSketch). The default is 256.
func WithCapacity(capacity int) Option {
	return func(o *sketchOptions) error {
		if capacity < 1 {
			return fmt.Errorf("bounded: WithCapacity requires capacity >= 1, got %d", capacity)
		}
		o.capacity = capacity
		o.capacitySet = true
		return nil
	}
}

// buildOptions validates cfg, applies opts over the defaults, and
// rejects any explicitly-set option outside the allowed set for the
// named constructor.
func buildOptions(constructor string, cfg Config, opts []Option, allowed ...string) (*sketchOptions, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o, err := applyOptions(constructor, opts)
	if err != nil {
		return nil, err
	}
	set := map[string]bool{
		optStrict:   o.strictSet,
		optCopies:   o.copiesSet,
		optFailure:  o.failureSet,
		optK:        o.kSet,
		optCapacity: o.capacitySet,
	}
	for _, name := range allowed {
		delete(set, name)
	}
	for name, wasSet := range set {
		if wasSet {
			return nil, fmt.Errorf("bounded: %s does not apply to %s", name, constructor)
		}
	}
	return o, nil
}

// applyOptions applies opts over the defaults: the option values a
// constructor given opts builds with, whether or not they apply to it.
func applyOptions(constructor string, opts []Option) (*sketchOptions, error) {
	o := &sketchOptions{
		strict:      true,
		copies:      0, // 0 = the sampler's 2/eps default
		failureProb: 0.1,
		k:           32,
		capacity:    256,
	}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("bounded: %s received a nil Option", constructor)
		}
		if err := opt(o); err != nil {
			return nil, err
		}
	}
	return o, nil
}
