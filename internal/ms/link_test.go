package ms

import (
	"context"
	"encoding/gob"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"titant/internal/feature"
	"titant/internal/link"
)

// slowModel is a stub detector that parks in every scoring call. The
// engine cannot interrupt a model, so an expired deadline shows at the
// stage boundary behind it.
type slowModel struct {
	Width   int
	SleepMs int
}

func init() { gob.Register(&slowModel{}) }

func (m *slowModel) NumFeatures() int { return m.Width }
func (m *slowModel) Score([]float64) float64 {
	time.Sleep(time.Duration(m.SleepMs) * time.Millisecond)
	return 0.1
}
func (m *slowModel) ScoreBatch(dst []float64, _ *feature.Matrix) {
	time.Sleep(time.Duration(m.SleepMs) * time.Millisecond)
	clear(dst)
}

func postDeadline(t *testing.T, rt http.RoundTripper, url, body, deadlineMs string) (int, string, time.Duration) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderDeadline, deadlineMs)
	start := time.Now()
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw), time.Since(start)
}

// TestShardHonoursDeadline: a call carrying X-Deadline-Ms: 5 into an
// engine whose model takes 10 ms is answered 503 "canceled" well inside
// 50 ms on both transports — the HTTP route reads the header, the link
// the frame slot, one code path behind them — the worker pool is gone
// when it is, and the next call on the same connection is unaffected.
func TestShardHonoursDeadline(t *testing.T) {
	bundle, err := NewBundle("slow", &slowModel{Width: feature.NumBasic, SleepMs: 10}, 0.5, trainToy(t, 0).City, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(table(t), bundle, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()
	body := `{"transactions":[{"id":1,"from":1,"to":2,"amount":5},{"id":2,"from":2,"to":3,"amount":7},` +
		`{"id":3,"from":3,"to":4,"amount":9},{"id":4,"from":4,"to":1,"amount":11}]}`

	plain := &http.Transport{}
	defer plain.CloseIdleConnections()
	lk := link.New(nil)
	defer lk.Close()
	for name, rt := range map[string]http.RoundTripper{"http": plain, "link": lk} {
		t.Run(name, func(t *testing.T) {
			// Warm: the connection and its goroutines exist before the count.
			if code, raw, _ := postDeadline(t, rt, hs.URL+"/v1/score/batch", body, "2000"); code != http.StatusOK {
				t.Fatalf("warm call: %d %s", code, raw)
			}
			before := runtime.NumGoroutine()
			code, raw, took := postDeadline(t, rt, hs.URL+"/v1/score/batch", body, "5")
			if code != http.StatusServiceUnavailable || !strings.Contains(raw, `"code":"canceled"`) {
				t.Fatalf("expired call answered %d %s, want 503 canceled", code, raw)
			}
			if took > 50*time.Millisecond {
				t.Errorf("expired call took %v, want under 50ms", took)
			}
			for wait := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(wait) {
					t.Fatalf("%d goroutines after the expired call, %d before it", runtime.NumGoroutine(), before)
				}
			}
			if code, raw, _ := postDeadline(t, rt, hs.URL+"/v1/score/batch", body, "2000"); code != http.StatusOK || !strings.Contains(raw, `"verdicts"`) {
				t.Fatalf("call after the expired one: %d %s", code, raw)
			}
		})
	}
	if lk.Calls.Load() != 3 || lk.Redials.Load() != 0 || srv.Stats().LinkConns != 1 {
		t.Fatalf("link calls %d, redials %d, conns %d; want 3, 0, 1", lk.Calls.Load(), lk.Redials.Load(), srv.Stats().LinkConns)
	}
}

// TestDeadlineContextPooled: the deadline context costs no allocation per
// call, and one that fired is never handed out again.
func TestDeadlineContextPooled(t *testing.T) {
	ctx := context.Background()
	if !raceEnabled {
		if n := testing.AllocsPerRun(200, func() { withDeadline(ctx, time.Second).release() }); n > 0 {
			t.Errorf("withDeadline+release allocates %.0f objects per call, want 0", n)
		}
	}
	d := withDeadline(ctx, time.Millisecond)
	<-d.Done()
	if d.Err() != context.DeadlineExceeded {
		t.Fatalf("Err after the deadline: %v", d.Err())
	}
	d.release()
	for i := 0; i < 100; i++ {
		fresh := withDeadline(ctx, time.Second)
		if fresh == d || fresh.Err() != nil {
			t.Fatal("a fired deadline context was pooled again")
		}
		defer fresh.release()
	}
	// The parent's cancellation shows through Err.
	parent, cancel := context.WithCancel(ctx)
	child := withDeadline(parent, time.Second)
	defer child.release()
	cancel()
	if child.Err() != context.Canceled {
		t.Fatalf("Err under a cancelled parent: %v", child.Err())
	}
}
