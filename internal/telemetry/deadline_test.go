package telemetry

import (
	"context"
	"testing"
	"time"
)

// TestDeadlineContextPooled: the deadline context costs no allocation per
// call, one that fired is never handed out again, and it carries its
// trace.
func TestDeadlineContextPooled(t *testing.T) {
	ctx := context.Background()
	trace := TraceID{1, 2, 3}
	if !raceEnabled {
		if n := testing.AllocsPerRun(200, func() {
			d := WithDeadline(ctx, time.Second, trace)
			if id, ok := TraceFrom(d); !ok || id != trace {
				t.Fatal("trace lost")
			}
			d.Release()
		}); n > 0 {
			t.Errorf("WithDeadline+Release allocates %.0f objects per call, want 0", n)
		}
	}
	d := WithDeadline(ctx, time.Millisecond, TraceID{})
	<-d.Done()
	if d.Err() != context.DeadlineExceeded {
		t.Fatalf("Err after the deadline: %v", d.Err())
	}
	d.Release()
	for i := 0; i < 100; i++ {
		fresh := WithDeadline(ctx, time.Second, TraceID{})
		if fresh == d || fresh.Err() != nil {
			t.Fatal("a fired deadline context was pooled again")
		}
		defer fresh.Release()
	}
	// The parent's cancellation shows through Err; its trace shows through
	// a deadline that carries none; without a deadline, Done is the
	// parent's.
	traced := WithDeadline(ctx, 0, trace)
	defer traced.Release()
	parent, cancel := context.WithCancel(traced)
	child := WithDeadline(parent, time.Second, TraceID{})
	defer child.Release()
	open := WithDeadline(parent, 0, TraceID{})
	defer open.Release()
	cancel()
	if child.Err() != context.Canceled || open.Done() != parent.Done() {
		t.Fatalf("Err under a cancelled parent: %v", child.Err())
	}
	if id, _ := TraceFrom(child); id != trace {
		t.Fatalf("parent's trace hidden: %v", id)
	}
}
