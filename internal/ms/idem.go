package ms

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"sync/atomic"
)

// idemCapacity is how many X-Idempotency-Key keys a shard remembers: the
// newest idemCapacity keyed ingests answer their replays from the table;
// a replay of an older one is applied again.
const idemCapacity = 4096

// idemTable is a shard's X-Idempotency-Key table: key → the first keyed
// ingest's answer, so a replay (a router retry through a dropped answer,
// a caller's own retry) gets those bytes back and is not applied again.
// A replay that arrives while the first call is still being applied waits
// for its answer, bounded by the replay's own context. Only a 200 is kept:
// a first call that failed applied nothing, and releases its key to the
// next. The table is process memory, bounded by idemCapacity: it survives
// neither a restart nor a repartition — a replay that reaches a restarted
// shard, or another shard, is applied there.
type idemTable struct {
	mu      sync.Mutex
	m       map[string]*idemEntry
	ring    []*idemEntry // insertion order, for eviction; made with the map
	next    int
	deduped atomic.Int64
}

// idemEntry is one key: open until its first call's answer is in.
type idemEntry struct {
	key    string
	done   chan struct{}
	kept   bool // the answer below is the key's, for replays
	status int
	body   []byte
}

// claim returns key's entry and whether the caller holds it. A holder
// applies its call and hands the answer to settle; any other caller gets
// the entry with the first call's answer in — or ctx's error if ctx ended
// first.
func (t *idemTable) claim(ctx context.Context, key string) (*idemEntry, bool, error) {
	for {
		t.mu.Lock()
		e := t.m[key]
		if e == nil {
			e = &idemEntry{key: key, done: make(chan struct{})}
			t.insert(e)
			t.mu.Unlock()
			return e, true, nil
		}
		t.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if e.kept {
			t.deduped.Add(1)
			return e, false, nil
		}
		// The first call applied nothing and let the key go: claim it anew.
	}
}

// insert adds e, evicting the oldest key once the table is full. Caller
// holds t.mu.
func (t *idemTable) insert(e *idemEntry) {
	if t.m == nil { // an engine that never sees a key pays nothing
		t.m, t.ring = make(map[string]*idemEntry), make([]*idemEntry, idemCapacity)
	}
	if old := t.ring[t.next]; old != nil && t.m[old.key] == old {
		delete(t.m, old.key)
	}
	t.ring[t.next], t.m[e.key] = e, e
	t.next = (t.next + 1) % idemCapacity
}

// settle lands the holder's answer: a 200 is kept for the replays, any
// other status releases the key.
func (t *idemTable) settle(e *idemEntry, status int, body []byte) {
	t.mu.Lock()
	if status == http.StatusOK {
		e.kept, e.status, e.body = true, status, bytes.Clone(body)
	} else if t.m[e.key] == e {
		delete(t.m, e.key)
	}
	t.mu.Unlock()
	close(e.done)
}
