package hbase

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"titant/internal/rng"
)

func openT(t *testing.T, dir string) *Table {
	t.Helper()
	tab, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestPutGet(t *testing.T) {
	tab := openT(t, t.TempDir())
	defer tab.Close()
	if _, err := tab.Put("zoe", "bf", "age", []byte("28"), 0); err != nil {
		t.Fatal(err)
	}
	v, ts, err := tab.Get("zoe", "bf", "age")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "28" || ts <= 0 {
		t.Fatalf("v=%q ts=%d", v, ts)
	}
}

func TestGetMissing(t *testing.T) {
	tab := openT(t, t.TempDir())
	defer tab.Close()
	if _, _, err := tab.Get("sam", "bf", "age"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestNewestVersionWins(t *testing.T) {
	tab := openT(t, t.TempDir())
	defer tab.Close()
	_, _ = tab.Put("zoe", "bf", "age", []byte("27"), 100)
	_, _ = tab.Put("zoe", "bf", "age", []byte("28"), 200)
	_, _ = tab.Put("zoe", "bf", "age", []byte("26"), 50)
	v, ts, err := tab.Get("zoe", "bf", "age")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "28" || ts != 200 {
		t.Fatalf("v=%q ts=%d", v, ts)
	}
	vs, err := tab.Versions("zoe", "bf", "age", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0].Timestamp != 200 || vs[2].Timestamp != 50 {
		t.Fatalf("versions = %+v", vs)
	}
}

func TestDeleteMasksOlder(t *testing.T) {
	tab := openT(t, t.TempDir())
	defer tab.Close()
	_, _ = tab.Put("zoe", "bf", "age", []byte("28"), 100)
	_, _ = tab.Delete("zoe", "bf", "age", 150)
	if _, _, err := tab.Get("zoe", "bf", "age"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted cell still live: %v", err)
	}
	// A write newer than the tombstone revives the cell.
	_, _ = tab.Put("zoe", "bf", "age", []byte("29"), 200)
	v, _, err := tab.Get("zoe", "bf", "age")
	if err != nil || string(v) != "29" {
		t.Fatalf("v=%q err=%v", v, err)
	}
}

func TestGetRow(t *testing.T) {
	tab := openT(t, t.TempDir())
	defer tab.Close()
	_, _ = tab.Put("zoe", "bf", "age", []byte("28"), 0)
	_, _ = tab.Put("zoe", "bf", "gender", []byte("f"), 0)
	_, _ = tab.Put("zoe", "emb", "d0", []byte("0.5"), 0)
	_, _ = tab.Put("sam", "bf", "age", []byte("40"), 0)
	row, err := tab.GetRow("zoe")
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 2 || string(row["bf"]["age"]) != "28" || string(row["emb"]["d0"]) != "0.5" {
		t.Fatalf("row = %v", row)
	}
	if _, err := tab.GetRow("nobody"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestScanRange(t *testing.T) {
	tab := openT(t, t.TempDir())
	defer tab.Close()
	for _, r := range []string{"a", "b", "c", "d"} {
		_, _ = tab.Put(r, "bf", "x", []byte(r), 0)
	}
	var got []string
	err := tab.Scan("b", "d", func(c Cell) bool {
		got = append(got, c.Row)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("scan = %v", got)
	}
	// Early stop.
	count := 0
	_ = tab.Scan("", "", func(c Cell) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop scanned %d", count)
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	tab := openT(t, dir)
	_, _ = tab.Put("zoe", "bf", "age", []byte("28"), 123)
	// Simulate crash: do NOT flush or close cleanly; just sync WAL (write
	// already synced by Put) and drop the handle.
	_ = tab.log.f.Close()

	tab2 := openT(t, dir)
	defer tab2.Close()
	v, ts, err := tab2.Get("zoe", "bf", "age")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "28" || ts != 123 {
		t.Fatalf("recovered v=%q ts=%d", v, ts)
	}
}

func TestWALTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	tab := openT(t, dir)
	_, _ = tab.Put("a", "f", "q", []byte("1"), 10)
	_, _ = tab.Put("b", "f", "q", []byte("2"), 20)
	_ = tab.log.f.Close()
	// Truncate the WAL mid-record.
	walPath := filepath.Join(dir, "wal.log")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	tab2 := openT(t, dir)
	defer tab2.Close()
	// First record survives; second (torn) is dropped.
	if v, _, err := tab2.Get("a", "f", "q"); err != nil || string(v) != "1" {
		t.Fatalf("first record lost: %v", err)
	}
	if _, _, err := tab2.Get("b", "f", "q"); !errors.Is(err, ErrNotFound) {
		t.Fatal("torn record resurrected")
	}
}

func TestFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	tab := openT(t, dir)
	for i := 0; i < 100; i++ {
		_, _ = tab.Put(fmt.Sprintf("row-%03d", i), "bf", "v", []byte{byte(i)}, 0)
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	st := tab.Stats()
	if st.MemCells != 0 || st.Segments != 1 || st.SegCells != 100 || st.WALBytes != 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	tab2 := openT(t, dir)
	defer tab2.Close()
	for i := 0; i < 100; i++ {
		v, _, err := tab2.Get(fmt.Sprintf("row-%03d", i), "bf", "v")
		if err != nil || v[0] != byte(i) {
			t.Fatalf("row %d: %v", i, err)
		}
	}
}

func TestCompactionEnforcesMaxVersions(t *testing.T) {
	dir := t.TempDir()
	tab, err := Open(Config{Dir: dir, MaxVersions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	for ts := int64(1); ts <= 5; ts++ {
		_, _ = tab.Put("zoe", "bf", "age", []byte{byte(ts)}, ts)
		_ = tab.Flush() // one segment per version
	}
	if err := tab.Compact(); err != nil {
		t.Fatal(err)
	}
	st := tab.Stats()
	if st.Segments != 1 {
		t.Fatalf("segments after compact: %d", st.Segments)
	}
	vs, err := tab.Versions("zoe", "bf", "age", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0].Timestamp != 5 || vs[1].Timestamp != 4 {
		t.Fatalf("versions after compact: %+v", vs)
	}
}

func TestCompactionDropsTombstones(t *testing.T) {
	tab := openT(t, t.TempDir())
	defer tab.Close()
	_, _ = tab.Put("zoe", "bf", "age", []byte("1"), 10)
	_ = tab.Flush()
	_, _ = tab.Delete("zoe", "bf", "age", 20)
	_ = tab.Flush()
	if err := tab.Compact(); err != nil {
		t.Fatal(err)
	}
	st := tab.Stats()
	if st.SegCells != 0 {
		t.Fatalf("tombstoned cells survived compaction: %+v", st)
	}
}

func TestAutoFlushAndCompact(t *testing.T) {
	tab, err := Open(Config{Dir: t.TempDir(), FlushThreshold: 10, CompactThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	for i := 0; i < 100; i++ {
		_, _ = tab.Put(fmt.Sprintf("r%02d", i), "f", "q", []byte{1}, 0)
	}
	st := tab.Stats()
	if st.Segments >= 4 {
		t.Fatalf("auto compaction never ran: %+v", st)
	}
	// All rows still readable.
	for i := 0; i < 100; i++ {
		if _, _, err := tab.Get(fmt.Sprintf("r%02d", i), "f", "q"); err != nil {
			t.Fatalf("row %d lost: %v", i, err)
		}
	}
}

func TestValidation(t *testing.T) {
	tab := openT(t, t.TempDir())
	defer tab.Close()
	if _, err := tab.Put("", "f", "q", nil, 0); err == nil {
		t.Error("empty row accepted")
	}
	if _, err := tab.Put("r", "f\x00x", "q", nil, 0); err == nil {
		t.Error("NUL family accepted")
	}
	if _, err := tab.Put("r", "f", "", nil, 0); err == nil {
		t.Error("empty qualifier accepted")
	}
}

func TestMonotonicTimestamps(t *testing.T) {
	tab := openT(t, t.TempDir())
	defer tab.Close()
	var last int64
	for i := 0; i < 100; i++ {
		ts, err := tab.Put("r", "f", "q", []byte{1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ts <= last {
			t.Fatalf("timestamp %d not monotone after %d", ts, last)
		}
		last = ts
	}
}

func TestGetAfterPutProperty(t *testing.T) {
	tab := openT(t, t.TempDir())
	defer tab.Close()
	r := rng.New(1)
	f := func(val []byte, rowN, famN, qualN uint8) bool {
		row := fmt.Sprintf("row-%d", rowN%32)
		fam := fmt.Sprintf("f%d", famN%4)
		qual := fmt.Sprintf("q%d", qualN%8)
		ts, err := tab.Put(row, fam, qual, val, 0)
		if err != nil {
			return false
		}
		got, gotTS, err := tab.Get(row, fam, qual)
		if err != nil || gotTS != ts {
			return false
		}
		// Random interleaved flushes must not change reads.
		if r.Bool(0.2) {
			if err := tab.Flush(); err != nil {
				return false
			}
			got, _, err = tab.Get(row, fam, qual)
			if err != nil {
				return false
			}
		}
		return bytes.Equal(got, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	tab := openT(t, t.TempDir())
	defer tab.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				row := fmt.Sprintf("g%d-r%d", g, i)
				if _, err := tab.Put(row, "f", "q", []byte{byte(i)}, 0); err != nil {
					errCh <- err
					return
				}
				if v, _, err := tab.Get(row, "f", "q"); err != nil || v[0] != byte(i) {
					errCh <- fmt.Errorf("read own write failed: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestSegmentCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	tab := openT(t, dir)
	_, _ = tab.Put("zoe", "bf", "age", []byte("28"), 0)
	_ = tab.Flush()
	_ = tab.Close()
	// Corrupt the segment payload.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".hfile" {
			p := filepath.Join(dir, e.Name())
			raw, _ := os.ReadFile(p)
			raw[len(raw)-1] ^= 0xFF
			_ = os.WriteFile(p, raw, 0o644)
		}
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("corrupt segment accepted")
	}
}

func BenchmarkPut(b *testing.B) {
	tab, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer tab.Close()
	val := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tab.Put(fmt.Sprintf("r%d", i%10000), "f", "q", val, 0)
	}
}

func BenchmarkGet(b *testing.B) {
	tab, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer tab.Close()
	val := make([]byte, 128)
	for i := 0; i < 10000; i++ {
		_, _ = tab.Put(fmt.Sprintf("r%d", i), "f", "q", val, 0)
	}
	_ = tab.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = tab.Get(fmt.Sprintf("r%d", i%10000), "f", "q")
	}
}

// TestSortCellsMatchesKeyOrder pins the field-wise comparison in
// sortCells to the order it replaced: concatenated Key() ascending, then
// timestamp descending, stable. Names are drawn from a tiny alphabet so
// shared prefixes, equal rows and version ties are the common case.
func TestSortCellsMatchesKeyOrder(t *testing.T) {
	r := rng.New(7)
	name := func() string {
		b := make([]byte, 1+r.Intn(3))
		for i := range b {
			b[i] = "ab\x01\xff"[r.Intn(4)]
		}
		return string(b)
	}
	for round := 0; round < 200; round++ {
		cells := make([]Cell, 1+r.Intn(60))
		for i := range cells {
			cells[i] = Cell{
				Row: name(), Family: name(), Qualifier: name(),
				Timestamp: int64(r.Intn(3)),
				Value:     []byte{byte(i)}, // tells tied cells apart: stability
			}
		}
		want := append([]Cell(nil), cells...)
		sort.SliceStable(want, func(i, j int) bool {
			ki, kj := want[i].Key(), want[j].Key()
			if ki != kj {
				return ki < kj
			}
			return want[i].Timestamp > want[j].Timestamp
		})
		sortCells(cells)
		for i := range cells {
			if cells[i].Key() != want[i].Key() || cells[i].Timestamp != want[i].Timestamp || cells[i].Value[0] != want[i].Value[0] {
				t.Fatalf("round %d: cell %d is %q@%d#%d, key order wants %q@%d#%d", round, i,
					cells[i].Key(), cells[i].Timestamp, cells[i].Value[0],
					want[i].Key(), want[i].Timestamp, want[i].Value[0])
			}
		}
	}
}

// TestRetainedValueSurvivesOverwriteFlushCompactReopen pins the contract
// Cell documents: a Value a reader kept — from the MemStore, from a
// flushed segment, from a compacted one, from a reopened table — holds its
// bytes whatever the store does next, including dropping that version.
func TestRetainedValueSurvivesOverwriteFlushCompactReopen(t *testing.T) {
	dir := t.TempDir()
	tab, err := Open(Config{Dir: dir, MaxVersions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { tab.Close() }()
	const rows = 16
	row := func(i int) string { return fmt.Sprintf("u:%d", i) }
	val := func(i, gen int) []byte { return []byte(fmt.Sprintf("row %02d generation %02d payload", i, gen)) }
	put := func(gen int) {
		t.Helper()
		for i := 0; i < rows; i++ {
			if _, err := tab.Put(row(i), "emb", "vec", val(i, gen), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	type kept struct {
		value []byte // the store's slice, retained
		want  []byte // what it held when read
	}
	var retained []kept
	retain := func(gen int) {
		t.Helper()
		rowKeys := make([]string, rows)
		for i := range rowKeys {
			rowKeys[i] = row(i)
		}
		err := tab.VisitRows(rowKeys, func(i int, c *Cell) bool {
			if !bytes.Equal(c.Value, val(i, gen)) {
				t.Fatalf("row %d reads %q in generation %d", i, c.Value, gen)
			}
			retained = append(retained, kept{value: c.Value, want: val(i, gen)})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(retained)%rows != 0 {
			t.Fatalf("generation %d: %d values retained", gen, len(retained))
		}
	}
	check := func(stage string) {
		t.Helper()
		for _, k := range retained {
			if !bytes.Equal(k.value, k.want) {
				t.Fatalf("%s: a retained value reads %q, was %q", stage, k.value, k.want)
			}
		}
	}

	put(0)
	retain(0) // MemStore values
	put(1)    // overwritten in the MemStore
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	retain(1) // segment values
	check("after flush")
	put(2)
	if err := tab.Compact(); err != nil { // drops generations 0 and 1
		t.Fatal(err)
	}
	retain(2) // compacted-segment values
	check("after compaction")
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	if tab, err = Open(Config{Dir: dir, MaxVersions: 1}); err != nil {
		t.Fatal(err)
	}
	retain(2) // values decoded from the segment file
	put(3)
	if err := tab.Compact(); err != nil {
		t.Fatal(err)
	}
	put(4)
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	check("after reopen, overwrite and compaction")
	if len(retained) != 4*rows {
		t.Fatalf("%d values retained, want %d", len(retained), 4*rows)
	}
}
