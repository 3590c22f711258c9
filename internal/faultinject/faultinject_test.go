package faultinject

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"titant/internal/link"
)

// shards is a base Caller standing in for the wire: it counts the calls
// that reach each shard and answers them "ok".
type shards [2]atomic.Int64

func (s *shards) Do(_ context.Context, c *link.Call) error {
	s[c.Shard].Add(1)
	c.Status, c.Body = 200, []byte("ok")
	return nil
}

// call issues one call to shard through tr.
func call(ctx context.Context, tr *Transport, shard int) (*link.Call, error) {
	c := link.NewCall(shard, 0)
	return c, tr.Do(ctx, c)
}

func TestParseScenarioRejectsBadScripts(t *testing.T) {
	cases := []string{
		`{"rules":[{"shard":0,"kind":"nope"}]}`,                           // unknown kind
		`{"rules":[{"shard":0,"kind":"latency"}]}`,                        // latency without delay
		`{"rules":[{"shard":0,"kind":"reset","prob":1.5}]}`,               // probability out of range
		`{"rules":[{"shard":0,"kind":"reset","start_ms":10,"end_ms":5}]}`, // inverted window
		`{"rules":[{"shard":0,"kind":"reset","typo":true}]}`,              // unknown field
	}
	for _, raw := range cases {
		if _, err := ParseScenario([]byte(raw)); err == nil {
			t.Errorf("accepted bad scenario %s", raw)
		}
	}
	sc, err := ParseScenario([]byte(`{"seed":7,"rules":[{"shard":-1,"kind":"latency","latency_ms":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 7 || len(sc.Rules) != 1 {
		t.Fatalf("parsed scenario = %+v", sc)
	}
}

func TestTransportFaults(t *testing.T) {
	var hits shards
	bg := context.Background()

	t.Run("reset never reaches the server", func(t *testing.T) {
		hits[0].Store(0)
		tr := NewTransport(&hits, &Scenario{Rules: []Rule{{Shard: 0, Kind: KindReset}}})
		if _, err := call(bg, tr, 0); !errors.Is(err, ErrReset) {
			t.Fatalf("err = %v, want reset", err)
		}
		if hits[0].Load() != 0 || tr.Forwarded() != 0 {
			t.Fatalf("reset forwarded: hits=%d fwd=%d", hits[0].Load(), tr.Forwarded())
		}
	})

	t.Run("http_error synthesizes without forwarding", func(t *testing.T) {
		hits[0].Store(0)
		tr := NewTransport(&hits, &Scenario{Rules: []Rule{{Shard: 0, Kind: KindHTTPError, Status: 502}}})
		c, err := call(bg, tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if c.Status != 502 || string(c.Answer[link.SlotContentType]) != link.JSON || !strings.Contains(string(c.Body), "synthesized 502") || hits[0].Load() != 0 {
			t.Fatalf("status=%d body=%s hits=%d", c.Status, c.Body, hits[0].Load())
		}
	})

	t.Run("drop_response delivers then loses the reply", func(t *testing.T) {
		hits[0].Store(0)
		tr := NewTransport(&hits, &Scenario{Rules: []Rule{{Shard: 0, Kind: KindDropResponse}}})
		if _, err := call(bg, tr, 0); err == nil {
			t.Fatal("dropped response returned no error")
		}
		if hits[0].Load() != 1 || tr.Forwarded() != 1 {
			t.Fatalf("side effect accounting: hits=%d fwd=%d, want 1/1", hits[0].Load(), tr.Forwarded())
		}
	})

	t.Run("blackhole blocks until the context dies", func(t *testing.T) {
		hits[0].Store(0)
		tr := NewTransport(&hits, &Scenario{Rules: []Rule{{Shard: 0, Kind: KindBlackhole}}})
		ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		if _, err := call(ctx, tr, 0); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("blackhole err = %v", err)
		}
		if d := time.Since(start); d < 25*time.Millisecond {
			t.Fatalf("blackhole returned after %v, before the context expired", d)
		}
		// The call's own timeout ends it too, as the wire's would.
		c := link.NewCall(0, 0)
		c.Timeout = 10 * time.Millisecond
		if err := tr.Do(bg, c); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("blackhole past the call's timeout: %v", err)
		}
		if hits[0].Load() != 0 {
			t.Fatal("blackholed call reached the server")
		}
	})

	t.Run("latency delays then forwards", func(t *testing.T) {
		hits[0].Store(0)
		tr := NewTransport(&hits, &Scenario{Rules: []Rule{{Shard: 0, Kind: KindLatency, LatencyMs: 40}}})
		start := time.Now()
		if _, err := call(bg, tr, 0); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < 40*time.Millisecond {
			t.Fatalf("latency fault added only %v", d)
		}
		if hits[0].Load() != 1 {
			t.Fatal("latency fault swallowed the call")
		}
		st := tr.Stats()
		if len(st) != 1 || st[0].Hits != 1 || st[0].Applied != 1 {
			t.Fatalf("rule stats = %+v", st)
		}
	})
}

// TestTransportWindowing: rules only fire inside their time window, so
// a scripted outage starts and ends on schedule — the revival half of
// every chaos scenario.
func TestTransportWindowing(t *testing.T) {
	var hits shards
	tr := NewTransport(&hits, &Scenario{Rules: []Rule{{Shard: 0, Kind: KindReset, StartMs: 50, EndMs: 100}}})
	tr.Start(time.Now().Add(-70 * time.Millisecond)) // we are now 70ms "into" the scenario
	if _, err := call(context.Background(), tr, 0); err == nil {
		t.Fatal("inside the window the reset must fire")
	}
	// Wait until past EndMs; the same call now flows.
	time.Sleep(40 * time.Millisecond)
	if _, err := call(context.Background(), tr, 0); err != nil {
		t.Fatalf("after the window: %v", err)
	}
	if hits[0].Load() != 1 {
		t.Fatalf("hits = %d, want 1", hits[0].Load())
	}
}

// TestTransportShardScoping: a rule scoped to shard 1 leaves shard 0
// traffic untouched — rules key on the call's shard index.
func TestTransportShardScoping(t *testing.T) {
	var hits shards
	tr := NewTransport(&hits, &Scenario{Rules: []Rule{{Shard: 1, Kind: KindReset}}})
	if _, err := call(context.Background(), tr, 0); err != nil {
		t.Fatalf("shard 0 caught shard 1's fault: %v", err)
	}
	if _, err := call(context.Background(), tr, 1); err == nil {
		t.Fatal("shard 1's fault did not fire")
	}
	if hits[0].Load() != 1 || hits[1].Load() != 0 {
		t.Fatalf("hits = %d/%d", hits[0].Load(), hits[1].Load())
	}
}

// TestTransportSeededProbability: probabilistic rules draw from the
// scenario seed — two transports with the same seed fault the same
// calls in the same order.
func TestTransportSeededProbability(t *testing.T) {
	var hits shards
	run := func() []bool {
		tr := NewTransport(&hits, &Scenario{Seed: 42, Rules: []Rule{{Shard: 0, Kind: KindReset, Prob: 0.5}}})
		out := make([]bool, 40)
		for i := range out {
			_, err := call(context.Background(), tr, 0)
			out[i] = err != nil
		}
		return out
	}
	a, b := run(), run()
	faulted := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: seeded runs diverged", i)
		}
		if a[i] {
			faulted++
		}
	}
	if faulted == 0 || faulted == len(a) {
		t.Fatalf("prob 0.5 faulted %d of %d", faulted, len(a))
	}
}
