package obs

import (
	"context"
	"runtime/pprof"
	"runtime/trace"
)

// Span is an execution-trace region handle. It is a value type holding
// one pointer, so starting and ending a span allocates nothing when
// tracing is off and only the trace package's own region record when it
// is on. The zero Span is a valid no-op.
type Span struct {
	r *trace.Region
}

// StartRegion opens a trace region named name in ctx if execution
// tracing is active (go test -trace, runtime/trace.Start). When tracing
// is off this is a single predictable-false branch.
func StartRegion(ctx context.Context, name string) Span {
	if !trace.IsEnabled() {
		return Span{}
	}
	return Span{r: trace.StartRegion(ctx, name)}
}

// End closes the span; safe on the zero Span.
func (s Span) End() {
	if s.r != nil {
		s.r.End()
	}
}

// Task is an execution-trace task handle grouping related regions
// (e.g. one merged-view rebuild and its per-shard copy regions). The
// zero Task is a valid no-op whose Context returns nil.
type Task struct {
	ctx context.Context
	t   *trace.Task
}

// StartTask opens a trace task when tracing is active.
func StartTask(ctx context.Context, name string) Task {
	if !trace.IsEnabled() {
		return Task{ctx: ctx}
	}
	tctx, t := trace.NewTask(ctx, name)
	return Task{ctx: tctx, t: t}
}

// Context returns the task-scoped context for nested regions.
func (t Task) Context() context.Context { return t.ctx }

// End closes the task; safe on the zero Task.
func (t Task) End() {
	if t.t != nil {
		t.t.End()
	}
}

// LabelGoroutine tags the calling goroutine with a pprof label so CPU
// profiles and goroutine dumps attribute samples to it — the shard
// workers call this once at start with their shard index. The label
// sticks for the goroutine's lifetime.
func LabelGoroutine(key, value string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(key, value)))
}
