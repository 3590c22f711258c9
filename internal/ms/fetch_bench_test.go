package ms

import (
	"math"
	"testing"

	"titant/internal/hbase"
	"titant/internal/rng"
	"titant/internal/txn"
)

// benchStore uploads users (8-dim embeddings) and flushes, so fetches
// read a realistic MemStore-plus-segment layout.
func benchStore(b *testing.B, users int) *hbase.Table {
	b.Helper()
	tab, err := hbase.Open(hbase.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tab.Close() })
	r := rng.New(7)
	up := &Uploader{Table: tab}
	for i := 0; i < users; i++ {
		u := txn.User{ID: txn.UserID(i), Age: uint8(20 + i%50), AvgAmount: float32(50 + i%200)}
		emb := make([]float32, 8)
		for j := range emb {
			emb[j] = float32(r.Float64() - 0.5)
		}
		if err := up.PutUser(&u, emb); err != nil {
			b.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		b.Fatal(err)
	}
	return tab
}

// benchCache builds the engine-shaped cache used by the fetch benchmarks.
func benchCache(size int) *userCache {
	var s Server
	WithUserCache(size)(&s)
	return s.cache
}

// zipfIDs draws n ids over [0, users) with a Zipf-ish 80/20 skew: most
// draws hit a hot head, the tail keeps the cache honest.
func zipfIDs(n, users int, seed uint64) []txn.UserID {
	r := rng.New(seed)
	ids := make([]txn.UserID, n)
	for i := range ids {
		u := math.Pow(r.Float64(), 3) // cubic skew toward 0
		ids[i] = txn.UserID(float64(users) * u)
	}
	return ids
}

// BenchmarkFetchUserCold measures the uncached store fetch — the
// point-read engine with no cache in front — cycling users so every read
// resolves through MemStore index, bloom filters and segment row index.
func BenchmarkFetchUserCold(b *testing.B) {
	tab := benchStore(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, found, err := fetchUser(tab, txn.UserID(i%10000))
		if err != nil || !found {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchUserWarm measures the read-through cache's hit path —
// the acceptance benchmark: ops/sec and allocs/op versus the pre-PR
// GetRow-based fetchUser.
func BenchmarkFetchUserWarm(b *testing.B) {
	tab := benchStore(b, 10000)
	cache := benchCache(1 << 14)
	load := func(u txn.UserID) func() (userParts, bool, error) {
		return func() (userParts, bool, error) { return fetchUser(tab, u) }
	}
	if _, ok, err := cache.GetOrLoad(42, load(42)); err != nil || !ok {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ok, err := cache.GetOrLoad(42, load(42))
		if err != nil || !ok || p.user.ID != 42 {
			b.Fatal("bad hit")
		}
	}
}

// BenchmarkFetchUserZipf measures the cache under a skewed key
// distribution with an undersized capacity, so hits, misses and CLOCK
// evictions all run — the realistic warm-serving mix.
func BenchmarkFetchUserZipf(b *testing.B) {
	tab := benchStore(b, 10000)
	cache := benchCache(1 << 12) // ~40% of the keyspace: evictions happen
	ids := zipfIDs(1<<16, 10000, 11)
	fetch := func(u txn.UserID) {
		p, ok, err := cache.GetOrLoad(u, func() (userParts, bool, error) { return fetchUser(tab, u) })
		if err != nil || !ok || p.user.ID != u {
			b.Fatal("bad fetch")
		}
	}
	for _, u := range ids[:1<<12] {
		fetch(u) // pre-warm the head
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch(ids[i%len(ids)])
	}
	b.StopTimer()
	st := cache.Stats()
	if total := st.Hits + st.Misses; total > 0 {
		b.ReportMetric(float64(st.Hits)/float64(total), "hit-rate")
	}
}

// BenchmarkFetchUserMiss measures the cold-start path for a user the
// store has never seen: the sentinel-error satellite makes the store
// side allocation-free, and the negative cache absorbs repeats.
func BenchmarkFetchUserMiss(b *testing.B) {
	b.Run("store", func(b *testing.B) {
		tab := benchStore(b, 1000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, found, err := fetchUser(tab, 999999)
			if err != nil || found {
				b.Fatal("unexpected")
			}
		}
	})
	b.Run("negcached", func(b *testing.B) {
		tab := benchStore(b, 1000)
		cache := benchCache(1 << 10)
		load := func() (userParts, bool, error) { return fetchUser(tab, 999999) }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := cache.GetOrLoad(999999, load); ok || err != nil {
				b.Fatal("unexpected")
			}
		}
	})
}
