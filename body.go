package bounded

import (
	"fmt"
	"reflect"

	"repro/internal/core"
)

// implementation is what an internal structure offers its public one: T
// is its own pointer type (for L1Estimator, the interface its two
// variants share), so Merge and CloneInto take their own kind.
type implementation[T any] interface {
	Update(i uint64, delta int64)
	UpdateColumns(b *Batch)
	Merge(other T) error
	CloneInto(dst T) T
	SpaceBits() int64
	state
}

// of is the body every public structure embeds: the shape its
// constructor gave it and the internal structure it fronts. P is the
// public structure itself — HeavyHitters embeds of[HeavyHitters,
// *heavy.AlphaL1] — so the body can name it and build its copies. The
// body supplies every Sketch method but the wire pair. Through use, its
// methods and every query method refuse a zero value (one never
// constructed, or left untouched by a failed UnmarshalBinary) with a
// panic naming the structure and the fix, instead of a nil dereference
// deep inside an internal package; Merge returns the refusal as an
// error.
type of[P any, T implementation[T]] struct {
	shape
	impl T
}

// bodied is a public structure whose body is an of[P, T]: a P.
type bodied[P any, T implementation[T]] interface{ body() *of[P, T] }

func (b *of[P, T]) body() *of[P, T] { return b }

// use returns the internal structure method is about to run on, after
// the zero-value guard: a zero value holds the zero shape.
func (b *of[P, T]) use(method string) T {
	if b.kind == 0 {
		name := reflect.TypeFor[P]().Name()
		panic(fmt.Sprintf("bounded: %s on zero-value %s (construct with New%s or restore with UnmarshalBinary first)",
			method, name, name))
	}
	return b.impl
}

// Update feeds one stream update.
func (b *of[P, T]) Update(i uint64, delta int64) { b.use("Update").Update(i, delta) }

// UpdateBatch feeds a batch of updates in one call: it plans them into
// a pooled columnar Batch and applies that through UpdateColumns.
func (b *of[P, T]) UpdateBatch(batch []Update) {
	core.UpdateBatch(b.use("UpdateBatch").UpdateColumns, batch)
}

// UpdateColumns feeds a pre-planned columnar batch (Sketch.UpdateColumns).
func (b *of[P, T]) UpdateColumns(batch *Batch) { b.use("UpdateColumns").UpdateColumns(batch) }

// SpaceBits reports the structure's space in the paper's cost model.
func (b *of[P, T]) SpaceBits() int64 { return b.use("SpaceBits").SpaceBits() }

// Merge folds another structure of the same kind, built from the same
// Config and options, into this one (Sketch.Merge).
func (b *of[P, T]) Merge(other Sketch) error {
	o, err := b.admit(other)
	if err != nil {
		return err
	}
	return b.impl.Merge(o.impl)
}

// admit is Compatible(b, other), returning other's body.
func (b *of[P, T]) admit(other Sketch) (*of[P, T], error) {
	if b.kind == 0 {
		return nil, fmt.Errorf("bounded: merge into zero-value %T (construct or UnmarshalBinary first)", (*P)(nil))
	}
	o, ok := other.(bodied[P, T])
	if !ok || reflect.ValueOf(other).IsNil() {
		return nil, mergeTypeError(b.kind, other)
	}
	ob := o.body()
	return ob, b.admits(ob.shape)
}

func (b *of[P, T]) compatible(other Sketch) error {
	_, err := b.admit(other)
	return err
}

// CloneInto returns a deep snapshot written into dst (Sketch.CloneInto).
func (b *of[P, T]) CloneInto(dst Sketch) Sketch { return b.cloneInto(dst, "CloneInto") }

// Clone returns a deep snapshot: CloneInto(nil).
func (b *of[P, T]) Clone() Sketch { return b.cloneInto(nil, "Clone") }

func (b *of[P, T]) cloneInto(dst Sketch, method string) Sketch {
	src := b.use(method)
	d := reuse[P](dst)
	db := any(d).(bodied[P, T]).body()
	*db = of[P, T]{b.shape, src.CloneInto(db.impl)}
	return any(d).(Sketch)
}

// unionInto is the k-way MergeAll pass of the kinds that have one: b is
// parts[0], others the rest, already checked Compatible, and merge is
// the internal structure's k-way union (heavy.AlphaL1.MergeAll).
func (b *of[P, T]) unionInto(dst Sketch, others []Sketch, merge func(src, dst T, others []T) (T, error)) (Sketch, error) {
	d := reuse[P](dst)
	db := any(d).(bodied[P, T]).body()
	impls := make([]T, len(others))
	for j, o := range others {
		impls[j] = o.(bodied[P, T]).body().impl
	}
	impl, err := merge(b.impl, db.impl, impls)
	if err != nil {
		return nil, err
	}
	*db = of[P, T]{b.shape, impl}
	return any(d).(Sketch), nil
}

func (b *of[P, T]) state() state { return b.impl }

// reuse returns dst when it is a *T, to be overwritten by CloneInto, and
// a new T otherwise.
func reuse[T any](dst Sketch) *T {
	d, _ := any(dst).(*T)
	return core.OrNew(d)
}

// wrap returns the public structure P fronting impl, built to sh.
func wrap[P any, T implementation[T]](sh shape, impl T) *P {
	p := new(P)
	*any(p).(bodied[P, T]).body() = of[P, T]{sh, impl}
	return p
}
