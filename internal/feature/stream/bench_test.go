package stream

import (
	"fmt"
	"testing"

	"titant/internal/rng"
	"titant/internal/txn"
)

// BenchmarkStreamIngest measures the O(1) ingest claim: ns/op and
// allocs/op must stay flat as the window grows from 16 to 360 buckets
// (the ring is touched at one slot per ingest regardless of length; only
// the per-user ring slots, paid once per user, scale with it).
func BenchmarkStreamIngest(b *testing.B) {
	for _, buckets := range []int{16, 90, 360} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			st := New(WithWindow(buckets, 3600), WithCities(64))
			r := rng.New(1)
			const users = 512
			fill := func(lo, n int) {
				tx := txn.Transaction{}
				for i := lo; i < lo+n; i++ {
					// One second of traffic per op: the window rotates
					// every 3600 ops, so bucket recycling is part of the
					// measured cost.
					tx.Day = txn.Day(i / 86400)
					tx.Sec = int32(i % 86400)
					tx.From = txn.UserID(r.Intn(users))
					tx.To = txn.UserID(r.Intn(users))
					tx.Amount = float32(r.Float64() * 100)
					tx.TransCity = uint16(r.Intn(64))
					st.Ingest(&tx)
				}
			}
			// Warm one full window cycle so every (user, slot) bucket
			// record and its cells exist: the measured loop then sees the
			// steady state, where rotation recycles records and cells
			// through the free lists instead of growing the slabs.
			warm := buckets * 3600
			fill(0, warm)
			b.ReportAllocs()
			b.ResetTimer()
			fill(warm, b.N)
		})
	}
	// hot is one sender paying 8 192 distinct receivers inside each
	// bucket, at the buckets=90 geometry: every op inserts into a list far
	// past chainMax, and every 8 192nd rotates the bucket and drops one. A
	// list walk per upsert would make it quadratic; it must stay within 2x
	// of buckets=90.
	b.Run("hot", func(b *testing.B) {
		const receivers = 8192
		st := New(WithWindow(90, 3600), WithCities(64))
		fill := func(lo, n int) {
			tx := txn.Transaction{}
			for i := lo; i < lo+n; i++ {
				sec := int64(i/receivers) * 3600
				tx.Day, tx.Sec = txn.Day(sec/86400), int32(sec%86400)
				tx.To = txn.UserID(1 + i%receivers)
				tx.Amount = float32(i % 100)
				st.Ingest(&tx)
			}
		}
		warm := 90 * receivers
		fill(0, warm)
		b.ReportAllocs()
		b.ResetTimer()
		fill(warm, b.N)
	})
}

// BenchmarkStreamReads measures the serving-path read costs: the O(1)
// city lookup the scorer hits several times per transaction, and the
// O(buckets) user-stats scan.
func BenchmarkStreamReads(b *testing.B) {
	st := New(WithWindow(90, 86400), WithCities(64))
	r := rng.New(2)
	const users = 1024
	for i := 0; i < 200000; i++ {
		tx := txn.Transaction{
			Day:  txn.Day(i / 2500),
			From: txn.UserID(r.Intn(users)), To: txn.UserID(r.Intn(users)),
			Amount: float32(r.Float64() * 100), TransCity: uint16(r.Intn(64)),
		}
		st.Ingest(&tx)
	}
	b.Run("citylookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = st.Lookup(uint16(i % 64))
		}
	})
	b.Run("userstats", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = st.Stats(txn.UserID(i % users))
		}
	})
	b.Run("velocity", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _, _, _ = st.Velocity(txn.UserID(i % users))
		}
	})
	b.Run("pairprior", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = st.PairPrior(txn.UserID(i%users), txn.UserID((i+1)%users))
		}
	})
}
