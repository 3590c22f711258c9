package stream

import (
	"fmt"
	"math"
	"testing"

	"titant/internal/feature"
	"titant/internal/rng"
	"titant/internal/txn"
)

// source is where the op generator draws its choices: a seeded RNG for
// the table test, the fuzzer's bytes for the fuzz target.
type source interface{ Intn(n int) int }

// byteSource reads choices off a byte string, two bytes each, and reads
// zeros once it runs out.
type byteSource struct{ b []byte }

func (s *byteSource) Intn(n int) int {
	v := 0
	for k := 0; k < 2 && len(s.b) > 0; k++ {
		v = v<<8 | int(s.b[0])
		s.b = s.b[1:]
	}
	return v % n
}

// opGen produces the transactions the differential test feeds both
// windows: traffic in and out of order inside the window, too-old and
// negative timestamps, far-future jumps with their corroborating second
// transaction or a byte-identical retry, self-transfers, fraud labels,
// day/second splits that put several days in one bucket, and bursts from
// one sender to many receivers in one bucket (lists past chainMax).
type opGen struct {
	src        source
	users      int
	cities     int
	bucketSecs int64
	window     int64 // seconds
	now        int64 // seconds since day 0
	id         txn.TxnID
	jump       *txn.Transaction // the last far-future proposal
}

func (g *opGen) at(sec int64, from, to txn.UserID) txn.Transaction {
	g.id++
	t := txn.Transaction{
		ID:        g.id,
		Day:       txn.Day(sec / 86400),
		Sec:       int32(sec % 86400),
		From:      from,
		To:        to,
		Amount:    float32(g.src.Intn(100000))/100 - 5,
		TransCity: uint16(g.src.Intn(g.cities + 1)),
		Fraud:     g.src.Intn(10) == 0,
	}
	if sec < 0 {
		t.Day, t.Sec = txn.Day(sec/86400-1), int32(sec%86400)
	}
	if g.src.Intn(30) == 0 && t.Day > 0 {
		t.Day-- // the same instant labelled with the previous day
		t.Sec += 86400
	}
	return t
}

// user draws skewed toward low ids, so some users are hot.
func (g *opGen) user() txn.UserID {
	return txn.UserID(min(g.src.Intn(g.users), g.src.Intn(g.users)))
}

func (g *opGen) next() []txn.Transaction {
	from, to := g.user(), g.user()
	if g.src.Intn(20) == 0 {
		to = from
	}
	switch k := g.src.Intn(100); {
	case k < 50: // in order
		g.now += int64(g.src.Intn(int(g.bucketSecs/16 + 1)))
		return []txn.Transaction{g.at(g.now, from, to)}
	case k < 54: // a slide of up to half the window
		g.now += int64(g.src.Intn(int(g.window/2/g.bucketSecs+1))) * g.bucketSecs
		return []txn.Transaction{g.at(g.now, from, to)}
	case k < 68: // out of order, inside the window (or just outside it)
		return []txn.Transaction{g.at(g.now-int64(g.src.Intn(int(g.window+g.bucketSecs))), from, to)}
	case k < 72: // too old
		return []txn.Transaction{g.at(g.now-g.window-g.bucketSecs-int64(g.src.Intn(int(g.window))), from, to)}
	case k < 75: // negative timestamp
		t := g.at(g.now, from, to)
		if g.src.Intn(2) == 0 {
			t.Sec = -int32(g.src.Intn(1<<20)) - 1
		} else {
			t.Day = -txn.Day(g.src.Intn(1000)) - 1
		}
		return []txn.Transaction{t}
	case k < 79: // a far-future jump proposal
		t := g.at(g.now+g.window*int64(2+g.src.Intn(3))+int64(g.src.Intn(int(g.bucketSecs))), from, to)
		g.jump = &t
		return []txn.Transaction{t}
	case k < 85 && g.jump != nil: // its retry, or a distinct second transaction near it
		j := *g.jump
		if g.src.Intn(2) == 0 {
			return []txn.Transaction{j}
		}
		g.now = int64(j.Day)*86400 + int64(j.Sec) + int64(g.src.Intn(int(g.window)))
		g.jump = nil
		return []txn.Transaction{g.at(g.now, from, to)}
	case k < 92: // a burst: one sender, many receivers, one instant
		out := make([]txn.Transaction, 0, g.users)
		for r := 0; r < g.users; r++ {
			if g.src.Intn(4) != 0 {
				out = append(out, g.at(g.now, from, txn.UserID(r)))
			}
		}
		return out
	case k < 96: // a burst into one receiver
		out := make([]txn.Transaction, 0, g.users)
		for s := 0; s < g.users; s++ {
			if g.src.Intn(4) != 0 {
				out = append(out, g.at(g.now, txn.UserID(s), to))
			}
		}
		return out
	default: // a user never seen before, at the window's far edge
		return []txn.Transaction{g.at(g.now-g.window+g.bucketSecs, txn.UserID(g.users+g.src.Intn(g.users)), to)}
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameStats(a, b feature.UserStats) bool {
	x := [...]float64{a.OutCount, a.InCount, a.OutAmount, a.InAmount, a.DistinctRcv, a.DistinctSnd, a.OutDays, a.InDays}
	y := [...]float64{b.OutCount, b.InCount, b.OutAmount, b.InAmount, b.DistinctRcv, b.DistinctSnd, b.OutDays, b.InDays}
	for i := range x {
		if !sameFloat(x[i], y[i]) {
			return false
		}
	}
	return true
}

// window is the read surface two windows are compared on.
type window interface {
	Stats(txn.UserID) feature.UserStats
	Velocity(txn.UserID) (float64, float64, float64, float64)
	PairPrior(from, to txn.UserID) float64
	LookupCity(uint16) (float64, float64, float64)
	CityTable() feature.CityTable
	Ingested() int64
	Dropped() int64
}

// matchReference fails unless every read of st equals ref's bit for bit,
// for users -1 .. 2*users-1 and every city.
func matchReference(st, ref window, users, cities int) error {
	if st.Ingested() != ref.Ingested() || st.Dropped() != ref.Dropped() {
		return fmt.Errorf("ingested/dropped %d/%d, reference %d/%d", st.Ingested(), st.Dropped(), ref.Ingested(), ref.Dropped())
	}
	for u := txn.UserID(-1); u < txn.UserID(2*users); u++ {
		if got, want := st.Stats(u), ref.Stats(u); !sameStats(got, want) {
			return fmt.Errorf("Stats(%d) = %+v, reference %+v", u, got, want)
		}
		a, b, c, d := st.Velocity(u)
		w, x, y, z := ref.Velocity(u)
		if !sameFloat(a, w) || !sameFloat(b, x) || !sameFloat(c, y) || !sameFloat(d, z) {
			return fmt.Errorf("Velocity(%d) = (%v %v %v %v), reference (%v %v %v %v)", u, a, b, c, d, w, x, y, z)
		}
		for v := txn.UserID(0); v < txn.UserID(users); v++ {
			if got, want := st.PairPrior(u, v), ref.PairPrior(u, v); !sameFloat(got, want) {
				return fmt.Errorf("PairPrior(%d, %d) = %v, reference %v", u, v, got, want)
			}
		}
	}
	for c := uint16(0); c <= uint16(cities); c++ {
		f, s, n := st.LookupCity(c)
		g, r, m := ref.LookupCity(c)
		if !sameFloat(f, g) || !sameFloat(s, r) || !sameFloat(n, m) {
			return fmt.Errorf("LookupCity(%d) = (%v %v %v), reference (%v %v %v)", c, f, s, n, g, r, m)
		}
	}
	got, want := st.CityTable(), ref.CityTable()
	for c := range want.Fraud {
		if !sameFloat(got.Fraud[c], want.Fraud[c]) || !sameFloat(got.Share[c], want.Share[c]) {
			return fmt.Errorf("CityTable city %d = (%v %v), reference (%v %v)", c, got.Fraud[c], got.Share[c], want.Fraud[c], want.Share[c])
		}
	}
	return nil
}

// runAgainstReference runs steps generator ops through a Store and the
// reference over the same geometry, comparing every read after every
// transaction.
func runAgainstReference(t *testing.T, src source, steps, shards, buckets int, bucketSecs int64) *Store {
	t.Helper()
	const users, cities = 24, 6
	st := New(WithShards(shards), WithWindow(buckets, bucketSecs), WithCities(cities))
	ref := newRefStore(shards, buckets, bucketSecs, cities)
	g := &opGen{src: src, users: users, cities: cities, bucketSecs: bucketSecs, window: int64(buckets) * bucketSecs, now: 86400 * 400}
	for step := 0; step < steps; step++ {
		for _, tx := range g.next() {
			st.Ingest(&tx)
			ref.Ingest(&tx)
			if err := matchReference(st, ref, users, cities); err != nil {
				t.Fatalf("step %d after %+v: %v", step, tx, err)
			}
		}
		// Follow the clock when two far-future proposals corroborated
		// each other, or the rest of the run would be all drops.
		g.now = max(g.now, ref.maxSeq.Load()*bucketSecs)
	}
	return st
}

// TestStreamMatchesReference holds the slab window to the map-ring
// reference it replaced, bitwise, over every geometry the store is run
// at and a few it is not: 25 200-second buckets straddle midnight, and
// 3-day ones span several days, so their records leave the home day.
func TestStreamMatchesReference(t *testing.T) {
	for _, buckets := range []int{1, 7, 90, 360} {
		for _, secs := range []int64{3600, 25200, 86400, 3 * 86400} {
			for _, shards := range []int{1, 8, 64} {
				name := fmt.Sprintf("buckets=%d/secs=%d/stripes=%d", buckets, secs, shards)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					steps := 120
					if testing.Short() {
						steps = 30
					}
					st := runAgainstReference(t, rng.New(uint64(buckets)*1_000_003+uint64(secs)+uint64(shards)), steps, shards, buckets, secs)
					// The run reached the paths it is for. Day cells are
					// carved only for records in the overflow.
					indexed, dayCells := 0, 0
					for i := range st.shards {
						indexed += len(st.shards[i].outs.idx) + len(st.shards[i].ins.idx)
						dayCells += int(st.shards[i].days.n)
					}
					if st.Dropped() == 0 || indexed == 0 || dayCells == 0 {
						t.Fatalf("generator missed a path: dropped %d, indexed lists %d, day cells %d", st.Dropped(), indexed, dayCells)
					}
				})
			}
		}
	}
}

// FuzzStreamMatchesReference runs the same generator with the op
// choices and the geometry taken from the fuzzer's bytes.
func FuzzStreamMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 2, 1, 0, 87, 0, 3, 0, 91, 0, 78, 0, 80, 0, 2, 9, 9})
	f.Add([]byte("\x02\x03\x02slab window against the map ring, bit for bit"))
	f.Add([]byte("\x03\x04\x01buckets that straddle midnight keep exact days"))
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 {
			return
		}
		buckets := []int{1, 2, 3, 7}[b[0]%4]
		secs := []int64{60, 3600, 86400, 3 * 86400, 25200}[b[1]%5]
		shards := []int{1, 2, 8}[b[2]%3]
		src := &byteSource{b: b[3:]}
		runAgainstReference(t, src, min(len(b)/2, 200), shards, buckets, secs)
	})
}
