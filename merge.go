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
// Contract of Merge, written once for every kind as of.Merge in body.go
// (the Sketch interface contract):
//
//   - other must be the same concrete type as the receiver and both
//     structures must have been built with identical Config and
//     options. One check (Compatible) compares exactly that, for every
//     kind, before anything is touched: every dimension, prime and hash
//     wiring is a function of it, so nothing else can disagree. A
//     mismatch returns a descriptive error and leaves the receiver
//     unchanged.
//   - Merge leaves other's answers and encoding unchanged: other is
//     read, never thinned (CSSS aligns sampling rates on the receiver
//     or on a copy of other's table), so a stored sketch needs no
//     defensive Clone before it is merged. All Merge may take from other
//     is the generator word that seeds that copy — Clone's clause, see
//     Sketch.Merge; until the generator travels on the wire (ROADMAP
//     4a).
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

	"repro/internal/heavy"
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

// Compatible reports, as Merge's error, whether b may be merged into a:
// the same concrete type, built from the same Config and options. It is
// the one check every Merge runs first.
func Compatible(a, b Sketch) error {
	as, ok := a.(structure)
	if !ok {
		return fmt.Errorf("bounded: %T is not a structure of this package", a)
	}
	return as.compatible(b)
}

// admits reports whether a state of shape other may be combined with
// one of shape s.
func (s shape) admits(other shape) error {
	if other != s {
		return fmt.Errorf("bounded: a %s built from %+v %+v cannot combine with one built from %+v %+v (identical Config and options required)",
			other.kind, other.cfg, other.opts, s.cfg, s.opts)
	}
	return nil
}

// MergeAll returns the union of parts — all built from the same Config
// and options (Compatible) — written into dst's storage: parts[0] is
// cloned into dst and the rest are folded in, so queries answer for the
// concatenation of every part's stream. dst is nil, a sketch an earlier
// CloneInto or MergeAll of the same kind returned that nobody else
// holds (one of another kind is ignored), or parts[0] itself, which is
// then merged into in place and not copied; never one of parts[1:]. The
// parts are read as Merge reads its argument, and every mismatch is
// refused before anything is written.
//
// The heavy-hitters kinds (HeavyHitters, L2HeavyHitters) build the
// union in one k-way pass: their tables come out byte for byte as the
// pairwise chain's — parts[0].CloneInto(dst), then Merge of each later
// part in order, with the same draws — and their candidate set is the
// top of the union of every part's candidates under the merged
// estimates, laid out the same whatever order the parts come in. The
// chain instead re-ranks after every step, and a candidate it drops
// early may rank in the union's top. Every other kind runs that chain.
func MergeAll(dst Sketch, parts []Sketch) (Sketch, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("bounded: MergeAll of no parts")
	}
	for _, p := range parts {
		if err := Compatible(parts[0], p); err != nil {
			return nil, err
		}
	}
	if k, ok := parts[0].(kWay); ok {
		return k.mergeAll(dst, parts[1:])
	}
	acc := parts[0]
	if dst != parts[0] {
		acc = parts[0].CloneInto(dst)
	}
	for _, p := range parts[1:] {
		if err := acc.Merge(p); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// kWay is implemented by the kinds that merge k parts in one pass: the
// receiver is parts[0], others the rest, already checked Compatible.
type kWay interface {
	mergeAll(dst Sketch, others []Sketch) (Sketch, error)
}

// mergeAll is MergeAll's k-way pass (heavy.AlphaL1.MergeAll).
func (h *HeavyHitters) mergeAll(dst Sketch, others []Sketch) (Sketch, error) {
	return h.unionInto(dst, others, (*heavy.AlphaL1).MergeAll)
}

// mergeAll is MergeAll's k-way pass (heavy.AlphaL2.MergeAll).
func (h *L2HeavyHitters) mergeAll(dst Sketch, others []Sketch) (Sketch, error) {
	return h.unionInto(dst, others, (*heavy.AlphaL2).MergeAll)
}
