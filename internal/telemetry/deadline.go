package telemetry

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Deadline is one call's context at either end of the router→shard link,
// pooled: a deadline and a trace over a parent, with no allocation per
// call where context.WithTimeout and a context value for the trace make
// six. Done closes at the deadline (the parent's Done when there is
// none); the parent's own cancellation shows through Err, which the
// engine polls between stages.
type Deadline struct {
	context.Context
	at    time.Time
	trace TraceID
	done  chan struct{}
	timer *time.Timer
	fired atomic.Bool
}

var deadlinePool = sync.Pool{New: func() any {
	d := &Deadline{done: make(chan struct{})}
	d.timer = time.AfterFunc(time.Hour, func() { d.fired.Store(true); close(d.done) })
	d.timer.Stop()
	return d
}}

// WithDeadline returns a pooled context over parent that ends after after
// (<= 0: never by itself) and carries trace (zero: the parent's).
func WithDeadline(parent context.Context, after time.Duration, trace TraceID) *Deadline {
	d := deadlinePool.Get().(*Deadline)
	d.Context, d.at, d.trace = parent, time.Time{}, trace
	if after > 0 {
		d.at = time.Now().Add(after)
		d.timer.Reset(after)
	}
	return d
}

// Release pools d again unless it fired: a closed channel is spent.
func (d *Deadline) Release() {
	if d.at.IsZero() || d.timer.Stop() {
		d.Context = nil
		deadlinePool.Put(d)
	}
}

func (d *Deadline) Deadline() (time.Time, bool) {
	if d.at.IsZero() {
		return d.Context.Deadline()
	}
	return d.at, true
}

func (d *Deadline) Done() <-chan struct{} {
	if d.at.IsZero() {
		return d.Context.Done()
	}
	return d.done
}

func (d *Deadline) Err() error {
	if d.fired.Load() {
		return context.DeadlineExceeded
	}
	return d.Context.Err()
}

// Value carries the trace as a pointer, which costs no allocation where
// boxing the ID would.
func (d *Deadline) Value(key any) any {
	if _, ok := key.(traceKey); ok && !d.trace.IsZero() {
		return &d.trace
	}
	return d.Context.Value(key)
}
