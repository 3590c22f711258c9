package stream

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"unsafe"

	"titant/internal/rng"
	"titant/internal/synth"
	"titant/internal/txn"
)

// liveHeap collects twice and returns the live heap and the part of it the
// collector has to scan.
func liveHeap() (heap, scan uint64) {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return m.HeapAlloc, s[0].Value.Uint64()
}

const mib = 1 << 20

// TestWindowHeapBudget warms a default-geometry window with the benchmark
// world's reference network (6 000 users, seed 1: 163 694 transactions)
// and holds what it costs to counts: the live heap it adds, and how much
// of that the collector scans. The map-ring layout took 96.8 MiB, 60.4 MiB
// of it scannable; the first slab layout, with one 64-byte record per
// bucket, float64 counts and int-keyed days, took 27.4 MiB; split
// 32-byte sum and 16-byte list-head records, uint32 counts and int32 days
// take 21.0.
func TestWindowHeapBudget(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("heap budget: not under -race or -short")
	}
	cfg := synth.DefaultConfig()
	cfg.Users = 6000
	cfg.Seed = 1
	w, _ := synth.Compose(cfg, synth.DefaultScenarioMix())
	ds, err := w.Dataset(1)
	if err != nil {
		t.Fatal(err)
	}
	net := ds.Network
	w, ds = nil, nil
	heap0, scan0 := liveHeap()
	st := New(WithCities(128))
	st.IngestBatch(net)
	heap1, scan1 := liveHeap()
	runtime.KeepAlive(net)
	runtime.KeepAlive(st)
	heap, scan := float64(int64(heap1-heap0))/mib, float64(int64(scan1-scan0))/mib
	t.Logf("%d transactions: live heap +%.1f MiB, scannable +%.2f MiB", len(net), heap, scan)
	if heap > 24 {
		t.Errorf("window holds %.1f MiB of live heap, budget 24", heap)
	}
	if scan > 1 {
		t.Errorf("collector scans %.2f MiB of the window, budget 1", scan)
	}
}

// TestRecordLayout pins the sizes the heap budget rests on: two sum
// records to a cache line, the list heads beside them, and 12-byte
// receiver and 8-byte day cells.
func TestRecordLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"bucket", unsafe.Sizeof(bucket{}), 32},
		{"lists", unsafe.Sizeof(lists{}), 16},
		{"receiver cell", unsafe.Sizeof(cell[txn.UserID, uint32]{}), 12},
		{"day cell", unsafe.Sizeof(cell[int32, struct{}]{}), 8},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestWindowTracksActiveSet slides a window through ten disjoint user
// populations, each active for one window span and starting one window
// after the last one went quiet: the heap after the tenth may not exceed
// the heap after the first by more than a quarter, because departed
// users' rows, records and cells are evicted and reused rather than kept.
func TestWindowTracksActiveSet(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("heap budget: not under -race or -short")
	}
	const (
		buckets = 8
		pop     = 4000
		perPop  = 80000
	)
	base, _ := liveHeap()
	st := New(WithShards(4), WithWindow(buckets, 86400), WithCities(16))
	r := rng.New(5)
	var first uint64
	tx := txn.Transaction{}
	for p := 0; p < 10; p++ {
		for i := 0; i < perPop; i++ {
			// Population p lives in days [2p*buckets, (2p+1)*buckets), in
			// time order; the window is buckets days wide.
			sec := int64(2*p*buckets)*86400 + int64(i)*int64(buckets)*86400/perPop
			tx.ID++
			tx.Day, tx.Sec = txn.Day(sec/86400), int32(sec%86400)
			tx.From = txn.UserID(p*pop + r.Intn(pop))
			tx.To = txn.UserID(p*pop + r.Intn(pop))
			tx.Amount = float32(r.Intn(1000))
			tx.TransCity = uint16(r.Intn(16))
			st.Ingest(&tx)
		}
		if p == 0 {
			first, _ = liveHeap()
		}
	}
	last, _ := liveHeap()
	runtime.KeepAlive(st)
	f, l := float64(first-base)/mib, float64(last-base)/mib
	t.Logf("window after the first population %.1f MiB, after the tenth %.1f MiB", f, l)
	if l > 1.25*f {
		t.Errorf("heap after ten populations %.1f MiB > 1.25 × %.1f MiB after one", l, f)
	}
}
