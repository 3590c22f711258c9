// Package hbase implements the Ali-HBase analogue of Section 4.4: the
// column-family store serving online feature reads for the Model Server.
//
// Data is organised exactly as in the paper's Figure 7 - row keys index
// users, column families group "basic features" and "user node embeddings",
// qualifiers name individual values, and every write is versioned by
// timestamp ("the data is uploaded to Ali-HBase by the version of date
// time"). The engine is a log-structured merge tree in the Bigtable
// tradition: a write-ahead log for durability, an in-memory MemStore,
// immutable sorted HFile segments flushed from it, and major compaction
// that merges segments while enforcing the per-cell version limit.
//
// The read path is point-read first: the MemStore is indexed by row, every
// segment carries a bloom filter plus a sparse row index over its rows,
// and Get / VisitRow / VisitRows resolve a row by merging the (few)
// per-source runs that actually contain it — O(1) in the size of the
// store, allocation-free on the visitor variants. Scan remains the
// general range iterator for offline jobs.
package hbase

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrNotFound is returned when a cell (or row) has no live value. It is
// returned as-is — not wrapped with per-call detail — so a miss costs the
// caller nothing: cold-start reads of unknown users are on the serving
// hot path, and building a fmt.Errorf string for every one of them would
// allocate just to be discarded.
var ErrNotFound = errors.New("hbase: not found")

// Config controls a table's engine.
type Config struct {
	Dir              string // data directory
	MaxVersions      int    // versions retained per cell at compaction (default 3)
	FlushThreshold   int    // MemStore cells that trigger an automatic flush (default 65536)
	CompactThreshold int    // segment count that triggers automatic compaction (default 6)
}

func (c *Config) fillDefaults() {
	if c.MaxVersions == 0 {
		c.MaxVersions = 3
	}
	if c.FlushThreshold == 0 {
		c.FlushThreshold = 1 << 16
	}
	if c.CompactThreshold == 0 {
		c.CompactThreshold = 6
	}
}

// Table is a column-family table. Safe for concurrent use.
type Table struct {
	mu       sync.RWMutex
	cfg      Config
	mem      *memTable
	segments []*segment // oldest first
	log      *wal
	nextSeg  uint64
	lastTS   int64
}

// Open opens (creating if necessary) a table rooted at cfg.Dir, replaying
// the WAL and loading existing segments.
func Open(cfg Config) (*Table, error) {
	cfg.fillDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("hbase: empty data directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("hbase: mkdir: %w", err)
	}
	t := &Table{cfg: cfg, mem: newMemTable()}

	// Load segments in id order.
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("hbase: readdir: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".hfile") {
			id, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".hfile"), 10, 64)
			if err != nil {
				continue
			}
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		seg, err := openSegment(t.segPath(id), id)
		if err != nil {
			return nil, err
		}
		t.segments = append(t.segments, seg)
		if id >= t.nextSeg {
			t.nextSeg = id + 1
		}
		for i := range seg.cells {
			if seg.cells[i].Timestamp > t.lastTS {
				t.lastTS = seg.cells[i].Timestamp
			}
		}
	}

	// Replay WAL into the MemStore.
	log, cells, err := openWAL(filepath.Join(cfg.Dir, "wal.log"))
	if err != nil {
		return nil, err
	}
	t.log = log
	for i := range cells {
		t.mem.apply(&cells[i])
		if cells[i].Timestamp > t.lastTS {
			t.lastTS = cells[i].Timestamp
		}
	}
	return t, nil
}

func (t *Table) segPath(id uint64) string {
	return filepath.Join(t.cfg.Dir, fmt.Sprintf("seg-%08d.hfile", id))
}

// nextTimestamp returns a strictly monotone logical timestamp seeded by the
// wall clock.
func (t *Table) nextTimestamp() int64 {
	ts := time.Now().UnixNano()
	if ts <= t.lastTS {
		ts = t.lastTS + 1
	}
	t.lastTS = ts
	return ts
}

// Put writes a value. ts <= 0 assigns the next logical timestamp. The
// assigned version is returned. The table takes ownership of value: it
// keeps the slice itself, not a copy, and hands it to readers as an
// immutable Cell.Value, so the caller must not modify it afterwards.
func (t *Table) Put(row, family, qualifier string, value []byte, ts int64) (int64, error) {
	return t.write(Cell{Row: row, Family: family, Qualifier: qualifier, Value: value, Timestamp: ts})
}

// Delete writes a tombstone that masks all versions at or below its
// timestamp.
func (t *Table) Delete(row, family, qualifier string, ts int64) (int64, error) {
	return t.write(Cell{Row: row, Family: family, Qualifier: qualifier, Timestamp: ts, Tombstone: true})
}

func (t *Table) write(c Cell) (int64, error) {
	if err := validateName("row", c.Row); err != nil {
		return 0, err
	}
	if err := validateName("family", c.Family); err != nil {
		return 0, err
	}
	if err := validateName("qualifier", c.Qualifier); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c.Timestamp <= 0 {
		c.Timestamp = t.nextTimestamp()
	} else if c.Timestamp > t.lastTS {
		t.lastTS = c.Timestamp
	}
	if err := t.log.append(&c); err != nil {
		return 0, err
	}
	if err := t.log.sync(); err != nil {
		return 0, err
	}
	t.mem.apply(&c)
	if t.mem.count >= t.cfg.FlushThreshold {
		if err := t.flushLocked(); err != nil {
			return 0, err
		}
	}
	return c.Timestamp, nil
}

// Get returns the newest live value of a cell. A miss returns ErrNotFound
// itself (check with == or errors.Is); the miss path allocates nothing.
func (t *Table) Get(row, family, qualifier string) ([]byte, int64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := t.pointGet(row, family, qualifier)
	if c == nil || c.Tombstone {
		return nil, 0, ErrNotFound
	}
	return c.Value, c.Timestamp, nil
}

// pointGet returns the newest version (live or tombstone) of one cell
// without touching any unrelated key: a row-map lookup in the MemStore
// plus a bloom-gated row-index search per segment. On equal timestamps a
// tombstone wins, matching resolveVersions' masking rule.
func (t *Table) pointGet(row, family, qualifier string) *Cell {
	var best *Cell
	consider := func(c *Cell) {
		if best == nil || c.Timestamp > best.Timestamp ||
			(c.Timestamp == best.Timestamp && c.Tombstone && !best.Tombstone) {
			best = c
		}
	}
	if mr := t.mem.rows[row]; mr != nil {
		if i, ok := findCol(mr.cells, 0, len(mr.cells), family, qualifier); ok {
			consider(newestInRun(mr.cells, i, len(mr.cells)))
		}
	}
	for _, seg := range t.segments {
		lo, hi, ok := seg.rowRange(row)
		if !ok {
			continue
		}
		if i, ok := findCol(seg.cells, lo, hi, family, qualifier); ok {
			consider(newestInRun(seg.cells, i, hi))
		}
	}
	return best
}

// Versions returns up to max versions of a cell, newest first, excluding
// values masked by tombstones.
func (t *Table) Versions(row, family, qualifier string, max int) ([]Cell, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var all []Cell
	if mr := t.mem.rows[row]; mr != nil {
		all = appendColRun(mr.cells, 0, len(mr.cells), family, qualifier, all)
	}
	for _, seg := range t.segments {
		all = seg.versions(row, family, qualifier, all)
	}
	live := resolveVersions(all)
	if max > 0 && len(live) > max {
		live = live[:max]
	}
	if len(live) == 0 {
		return nil, ErrNotFound
	}
	return live, nil
}

// resolveVersions sorts versions newest-first and drops tombstones plus
// anything at or below the newest tombstone. The tombstone bound is
// computed over the whole set first, so a value tying a tombstone's
// timestamp is masked regardless of input order — the same deterministic
// rule pointGet and the row visitor apply, keeping the scan and point
// read paths in exact agreement.
func resolveVersions(all []Cell) []Cell {
	sortCells(all)
	var tombTS int64 = -1 << 62
	for _, c := range all {
		if c.Tombstone && c.Timestamp > tombTS {
			tombTS = c.Timestamp
		}
	}
	var live []Cell
	for _, c := range all {
		if !c.Tombstone && c.Timestamp > tombTS {
			live = append(live, c)
		}
	}
	return live
}

// maxRowSources bounds the usual number of per-row cursor sources (the
// MemStore plus every segment) so a point read's cursor array lives on
// the stack: the default CompactThreshold caps live segments well below
// this before compaction folds them into one.
const maxRowSources = 8

// rowCursor walks one source's cells for a single row, in within-row
// order (column asc, timestamp desc).
type rowCursor struct {
	cells []Cell
	i     int
}

// VisitRow streams the newest live version of every cell in a row, in
// column order, to fn; fn returns false to stop early. The returned bool
// reports whether the row has any live cell. This is the zero-copy hot
// path under the Model Server's fetch: no nested maps are built and no
// cells are copied. The *Cell aliases the store's internal state and must
// not be retained or mutated after fn returns; its Value may be retained
// (see Cell) but never written to.
func (t *Table) VisitRow(row string, fn func(c *Cell) bool) (bool, error) {
	if err := validateName("row", row); err != nil {
		return false, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.visitRowLocked(row, fn), nil
}

// visitRowLocked merges the row's per-source runs column by column. Each
// source contributes its cells for this row as one sorted run; for every
// column, the globally newest version decides (tombstone wins timestamp
// ties, masking the column).
func (t *Table) visitRowLocked(row string, fn func(c *Cell) bool) bool {
	var stack [maxRowSources]rowCursor
	curs := stack[:0]
	if mr := t.mem.rows[row]; mr != nil && len(mr.cells) > 0 {
		curs = append(curs, rowCursor{cells: mr.cells})
	}
	for _, seg := range t.segments {
		if lo, hi, ok := seg.rowRange(row); ok {
			curs = append(curs, rowCursor{cells: seg.cells[lo:hi]})
		}
	}
	found := false
	for {
		// Find the smallest not-yet-consumed column across sources.
		var minF, minQ string
		first := true
		for ci := range curs {
			cu := &curs[ci]
			if cu.i >= len(cu.cells) {
				continue
			}
			c := &cu.cells[cu.i]
			if first || compareCol(c.Family, c.Qualifier, minF, minQ) < 0 {
				minF, minQ = c.Family, c.Qualifier
				first = false
			}
		}
		if first {
			return found
		}
		// Pick the newest version of that column and advance every source
		// past it.
		var best *Cell
		for ci := range curs {
			cu := &curs[ci]
			if cu.i >= len(cu.cells) {
				continue
			}
			if c := &cu.cells[cu.i]; compareCol(c.Family, c.Qualifier, minF, minQ) != 0 {
				continue
			}
			c := newestInRun(cu.cells, cu.i, len(cu.cells))
			if best == nil || c.Timestamp > best.Timestamp ||
				(c.Timestamp == best.Timestamp && c.Tombstone && !best.Tombstone) {
				best = c
			}
			for cu.i < len(cu.cells) {
				n := &cu.cells[cu.i]
				if compareCol(n.Family, n.Qualifier, minF, minQ) != 0 {
					break
				}
				cu.i++
			}
		}
		if !best.Tombstone {
			found = true
			if !fn(best) {
				return true
			}
		}
	}
}

// VisitRows is the batched point read ("multi-get"): it resolves every
// row under a single lock round, calling fn with the row's index for each
// newest live cell, in row order then column order. fn returning false
// aborts the whole batch. Like VisitRow, cells alias internal state and
// must not be retained, while their Values may be. Rows with no live cells
// simply produce no calls; callers that care track which indices they saw.
func (t *Table) VisitRows(rows []string, fn func(i int, c *Cell) bool) error {
	for _, row := range rows {
		if err := validateName("row", row); err != nil {
			return err
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	stop := false
	for i, row := range rows {
		t.visitRowLocked(row, func(c *Cell) bool {
			if !fn(i, c) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return nil
		}
	}
	return nil
}

// GetRow returns the newest live value of every cell in a row, as
// family -> qualifier -> value. A missing (or fully masked) row returns
// ErrNotFound itself; no error string is built for the miss. Values are
// the store's own immutable slices (see Cell). Hot paths that do not need
// the nested maps should use VisitRow.
func (t *Table) GetRow(row string) (map[string]map[string][]byte, error) {
	out := make(map[string]map[string][]byte)
	found, err := t.VisitRow(row, func(c *Cell) bool {
		fam, ok := out[c.Family]
		if !ok {
			fam = make(map[string][]byte)
			out[c.Family] = fam
		}
		fam[c.Qualifier] = c.Value
		return true
	})
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, ErrNotFound
	}
	return out, nil
}

// GetRows is the nested-map variant of VisitRows: one lock round for the
// whole row set, with absent rows returned as nil entries rather than
// errors (a batch's cold-start users are expected, not exceptional).
func (t *Table) GetRows(rows []string) ([]map[string]map[string][]byte, error) {
	out := make([]map[string]map[string][]byte, len(rows))
	err := t.VisitRows(rows, func(i int, c *Cell) bool {
		m := out[i]
		if m == nil {
			m = make(map[string]map[string][]byte)
			out[i] = m
		}
		fam, ok := m[c.Family]
		if !ok {
			fam = make(map[string][]byte)
			m[c.Family] = fam
		}
		fam[c.Qualifier] = c.Value
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Scan streams the newest live version of every cell whose row is in
// [startRow, endRow) (endRow "" means unbounded) in key order. fn returns
// false to stop early. This is the offline/range path; point lookups
// should use Get or VisitRow.
func (t *Table) Scan(startRow, endRow string, fn func(c Cell) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	inRange := func(row string) bool {
		return row >= startRow && (endRow == "" || row < endRow)
	}
	var all []Cell
	for row, mr := range t.mem.rows {
		if inRange(row) {
			all = append(all, mr.cells...)
		}
	}
	for _, seg := range t.segments {
		all = seg.scanRows(startRow, endRow, all)
	}
	sortCells(all)
	// Emit the newest live version per key.
	i := 0
	for i < len(all) {
		j := i
		key := all[i].Key()
		for j < len(all) && all[j].Key() == key {
			j++
		}
		if live := resolveVersions(all[i:j]); len(live) > 0 {
			if !fn(live[0]) {
				return nil
			}
		}
		i = j
	}
	return nil
}

// Flush persists the MemStore as a new segment and truncates the WAL.
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

func (t *Table) flushLocked() error {
	if t.mem.count == 0 {
		return nil
	}
	cells := make([]Cell, 0, t.mem.count)
	for _, mr := range t.mem.rows {
		cells = append(cells, mr.cells...)
	}
	sortCells(cells)
	id := t.nextSeg
	seg, err := writeSegment(t.segPath(id), id, cells)
	if err != nil {
		return err
	}
	t.nextSeg++
	t.segments = append(t.segments, seg)
	t.mem = newMemTable()
	if err := t.log.reset(); err != nil {
		return err
	}
	if len(t.segments) >= t.cfg.CompactThreshold {
		return t.compactLocked()
	}
	return nil
}

// Compact merges all segments into one, enforcing MaxVersions and dropping
// tombstones and the versions they mask (major compaction).
func (t *Table) Compact() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.flushLocked(); err != nil {
		return err
	}
	return t.compactLocked()
}

func (t *Table) compactLocked() error {
	if len(t.segments) <= 1 && t.mem.count == 0 {
		return nil
	}
	var all []Cell
	for _, seg := range t.segments {
		all = append(all, seg.cells...)
	}
	for _, mr := range t.mem.rows {
		all = append(all, mr.cells...)
	}
	sortCells(all)
	var merged []Cell
	i := 0
	for i < len(all) {
		j := i
		key := all[i].Key()
		for j < len(all) && all[j].Key() == key {
			j++
		}
		live := resolveVersions(all[i:j])
		if len(live) > t.cfg.MaxVersions {
			live = live[:t.cfg.MaxVersions]
		}
		merged = append(merged, live...)
		i = j
	}
	id := t.nextSeg
	seg, err := writeSegment(t.segPath(id), id, merged)
	if err != nil {
		return err
	}
	t.nextSeg++
	old := t.segments
	t.segments = []*segment{seg}
	t.mem = newMemTable()
	if err := t.log.reset(); err != nil {
		return err
	}
	for _, s := range old {
		_ = os.Remove(s.path)
	}
	return nil
}

// Stats reports engine state.
type Stats struct {
	MemCells int
	Segments int
	SegCells int
	WALBytes int64
}

// Stats returns current engine statistics.
func (t *Table) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := Stats{MemCells: t.mem.count, Segments: len(t.segments), WALBytes: t.log.len}
	for _, seg := range t.segments {
		s.SegCells += len(seg.cells)
	}
	return s
}

// Close flushes and releases the table.
func (t *Table) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.flushLocked(); err != nil {
		t.log.close()
		return err
	}
	return t.log.close()
}
