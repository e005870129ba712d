package bounded

// This file is the public face of the mergeability layer. Every sketch
// in the library is a linear (or monotone) function of its input
// stream, so two instances built from the SAME Config — same Seed, same
// parameters — combine into the sketch of the concatenated stream:
// counters add coordinate-wise, sampling schedules align, candidate
// trackers re-rank under the merged estimates. That is what makes the
// sharded ingest engine (package engine) possible: S single-writer
// instances ingest disjoint substreams in parallel and queries are
// answered from a merged snapshot. Paired with the wire format in
// sketch.go it also crosses process boundaries: marshal on one machine,
// unmarshal on another, Merge there.
//
// Contract shared by every Merge below (the Sketch interface contract):
//
//   - other must be the same concrete type as the receiver and both
//     structures must have been built with identical Config (and
//     options); mismatches return a descriptive error and leave the
//     receiver unchanged where practical.
//   - Merge leaves other's answers and encoding unchanged: other is
//     read, never thinned (CSSS aligns sampling rates on the receiver
//     or on a copy of other's table), so a stored sketch needs no
//     defensive Clone before it is merged. All Merge may take from other
//     is the generator word that seeds that copy — Clone's clause, see
//     Sketch.Merge; until wire v2 (ROADMAP 4a).
//   - Neither Merge nor Clone is safe concurrently with updates to the
//     involved structures; the engine serializes them through its shard
//     workers.
//
// Clone returns a deep snapshot sharing only immutable state (hash
// functions), safe to hand to another goroutine while the original
// keeps ingesting. Clone returns the Sketch interface (the signature
// all eight structures share); assert back to the concrete type when
// you need the full query surface:
//
//	snap := hh.Clone().(*bounded.HeavyHitters)
//
// InnerProduct merges like every other structure: both of its stream
// sketches are linear, so f-sketches and g-sketches add coordinate-wise.

import (
	"fmt"
	"reflect"

	"repro/internal/core"
)

// mergeTypeError formats the mismatched-operand diagnostic,
// distinguishing a nil operand (untyped or a typed-nil pointer boxed in
// the interface) from a genuinely different concrete type.
func mergeTypeError(want Kind, other Sketch) error {
	if other == nil {
		return fmt.Errorf("bounded: merge with nil %s", want)
	}
	if v := reflect.ValueOf(other); v.Kind() == reflect.Pointer && v.IsNil() {
		return fmt.Errorf("bounded: merge with nil %s", want)
	}
	return fmt.Errorf("bounded: merge of %T into %s (Merge requires the same concrete type)", other, want)
}

// reuse returns dst when it is a *T, to be overwritten by CloneInto, and
// a new T otherwise.
func reuse[T any](dst Sketch) *T {
	d, _ := any(dst).(*T)
	return core.OrNew(d)
}

// Merge folds another HeavyHitters built from the same Config into this
// one; afterwards queries answer for the union of both input streams.
func (h *HeavyHitters) Merge(other Sketch) error {
	o, ok := other.(*HeavyHitters)
	if !ok || o == nil {
		return mergeTypeError(KindHeavyHitters, other)
	}
	return h.impl.Merge(o.impl)
}

// CloneInto returns a deep snapshot written into dst (Sketch.CloneInto).
func (h *HeavyHitters) CloneInto(dst Sketch) Sketch {
	d := reuse[HeavyHitters](dst)
	*d = HeavyHitters{cfg: h.cfg, strict: h.strict, impl: h.impl.CloneInto(d.impl)}
	return d
}

// Clone returns a deep snapshot.
func (h *HeavyHitters) Clone() Sketch { return h.CloneInto(nil) }

// Merge folds another L1Estimator built from the same Config (and the
// same strict flag) into this one.
func (e *L1Estimator) Merge(other Sketch) error {
	o, ok := other.(*L1Estimator)
	if !ok || o == nil {
		return mergeTypeError(KindL1Estimator, other)
	}
	if (e.strict != nil) != (o.strict != nil) {
		return fmt.Errorf("bounded: merging strict and general L1Estimators")
	}
	if e.strict != nil {
		return e.strict.Merge(o.strict)
	}
	return e.general.Merge(o.general)
}

// CloneInto returns a deep snapshot written into dst (Sketch.CloneInto).
func (e *L1Estimator) CloneInto(dst Sketch) Sketch {
	d := reuse[L1Estimator](dst)
	c := L1Estimator{cfg: e.cfg, delta: e.delta}
	if e.strict != nil {
		c.strict = e.strict.CloneInto(d.strict)
	} else {
		c.general = e.general.CloneInto(d.general)
	}
	*d = c
	return d
}

// Clone returns a deep snapshot.
func (e *L1Estimator) Clone() Sketch { return e.CloneInto(nil) }

// Merge folds another L0Estimator built from the same Config into this
// one.
func (e *L0Estimator) Merge(other Sketch) error {
	o, ok := other.(*L0Estimator)
	if !ok || o == nil {
		return mergeTypeError(KindL0Estimator, other)
	}
	return e.impl.Merge(o.impl)
}

// CloneInto returns a deep snapshot written into dst (Sketch.CloneInto).
func (e *L0Estimator) CloneInto(dst Sketch) Sketch {
	d := reuse[L0Estimator](dst)
	*d = L0Estimator{cfg: e.cfg, impl: e.impl.CloneInto(d.impl)}
	return d
}

// Clone returns a deep snapshot.
func (e *L0Estimator) Clone() Sketch { return e.CloneInto(nil) }

// Merge folds another L1Sampler built from the same Config and copy
// count into this one.
func (s *L1Sampler) Merge(other Sketch) error {
	o, ok := other.(*L1Sampler)
	if !ok || o == nil {
		return mergeTypeError(KindL1Sampler, other)
	}
	return s.impl.Merge(o.impl)
}

// CloneInto returns a deep snapshot written into dst (Sketch.CloneInto).
func (s *L1Sampler) CloneInto(dst Sketch) Sketch {
	d := reuse[L1Sampler](dst)
	*d = L1Sampler{cfg: s.cfg, copies: s.copies, impl: s.impl.CloneInto(d.impl)}
	return d
}

// Clone returns a deep snapshot.
func (s *L1Sampler) Clone() Sketch { return s.CloneInto(nil) }

// Merge folds another SupportSampler built from the same Config and k
// into this one.
func (s *SupportSampler) Merge(other Sketch) error {
	o, ok := other.(*SupportSampler)
	if !ok || o == nil {
		return mergeTypeError(KindSupportSampler, other)
	}
	return s.impl.Merge(o.impl)
}

// CloneInto returns a deep snapshot written into dst (Sketch.CloneInto).
func (s *SupportSampler) CloneInto(dst Sketch) Sketch {
	d := reuse[SupportSampler](dst)
	*d = SupportSampler{cfg: s.cfg, k: s.k, impl: s.impl.CloneInto(d.impl)}
	return d
}

// Clone returns a deep snapshot.
func (s *SupportSampler) Clone() Sketch { return s.CloneInto(nil) }

// Merge folds another InnerProduct built from the same Config into this
// one: both of its stream sketches are linear, so the result estimates
// the inner product of the concatenated f streams and concatenated g
// streams.
func (ip *InnerProduct) Merge(other Sketch) error {
	o, ok := other.(*InnerProduct)
	if !ok || o == nil {
		return mergeTypeError(KindInnerProduct, other)
	}
	return ip.impl.Merge(o.impl)
}

// CloneInto returns a deep snapshot written into dst (Sketch.CloneInto).
func (ip *InnerProduct) CloneInto(dst Sketch) Sketch {
	d := reuse[InnerProduct](dst)
	*d = InnerProduct{cfg: ip.cfg, impl: ip.impl.CloneInto(d.impl)}
	return d
}

// Clone returns a deep snapshot.
func (ip *InnerProduct) Clone() Sketch { return ip.CloneInto(nil) }

// Merge folds another L2HeavyHitters built from the same Config into
// this one.
func (h *L2HeavyHitters) Merge(other Sketch) error {
	o, ok := other.(*L2HeavyHitters)
	if !ok || o == nil {
		return mergeTypeError(KindL2HeavyHitters, other)
	}
	return h.impl.Merge(o.impl)
}

// CloneInto returns a deep snapshot written into dst (Sketch.CloneInto).
func (h *L2HeavyHitters) CloneInto(dst Sketch) Sketch {
	d := reuse[L2HeavyHitters](dst)
	*d = L2HeavyHitters{cfg: h.cfg, impl: h.impl.CloneInto(d.impl)}
	return d
}

// Clone returns a deep snapshot.
func (h *L2HeavyHitters) Clone() Sketch { return h.CloneInto(nil) }

// Merge folds another SyncSketch built from the same Config and
// capacity into this one: the sketch is linear, so the result sketches
// the sum of both frequency vectors — shard-local sync sketches merge
// into the sketch of the full stream before an exchange.
func (s *SyncSketch) Merge(other Sketch) error {
	o, ok := other.(*SyncSketch)
	if !ok || o == nil || o.impl == nil {
		return mergeTypeError(KindSyncSketch, other)
	}
	if s.impl == nil {
		return fmt.Errorf("bounded: merge into zero-value SyncSketch (construct with NewSyncSketch or UnmarshalBinary first)")
	}
	return s.impl.Merge(o.impl)
}

// CloneInto returns a deep snapshot written into dst (Sketch.CloneInto).
func (s *SyncSketch) CloneInto(dst Sketch) Sketch {
	d := reuse[SyncSketch](dst)
	c := SyncSketch{cfg: s.cfg, capacity: s.capacity}
	if s.impl != nil {
		c.impl = s.impl.CloneInto(d.impl)
	}
	*d = c
	return d
}

// Clone returns a deep snapshot.
func (s *SyncSketch) Clone() Sketch { return s.CloneInto(nil) }
