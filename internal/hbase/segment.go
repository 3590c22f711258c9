package hbase

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"titant/internal/logio"
)

// segment is one immutable sorted file of cells (the HFile analogue).
// Entries are ordered by (key asc, timestamp desc) so that the newest
// version of a cell is encountered first. Alongside the cells, every
// segment carries two derived point-read structures, rebuilt in memory
// at write and open time:
//
//   - rows: a sparse row index — one span per distinct row — so a point
//     read binary-searches rows, not cells, and lands directly on the
//     row's cell range;
//   - filter: a bloom filter over row keys, so reads for rows the
//     segment has never seen skip it without searching at all.
type segment struct {
	id     uint64
	path   string
	cells  []Cell    // sorted (key asc, ts desc)
	rows   []rowSpan // one entry per distinct row, ascending
	filter *bloom
}

// rowSpan is one distinct row's contiguous cell range within a segment.
type rowSpan struct {
	row        string
	start, end int32 // cells[start:end]
}

const segMagic = 0x48464C45 // "HFLE"

// sortCells orders cells by (key asc, ts desc). It compares row, family
// and qualifier field by field instead of building Key() twice per
// comparison; the order is the concatenated key's, because validateName
// keeps the \x00 separator — the smallest byte — out of every name.
func sortCells(cells []Cell) {
	slices.SortStableFunc(cells, func(a, b Cell) int {
		return cmp.Or(strings.Compare(a.Row, b.Row), strings.Compare(a.Family, b.Family),
			strings.Compare(a.Qualifier, b.Qualifier), cmp.Compare(b.Timestamp, a.Timestamp))
	})
}

// newSegment wraps sorted cells with their row index and bloom filter.
func newSegment(id uint64, path string, cells []Cell) *segment {
	s := &segment{id: id, path: path, cells: cells}
	for i := 0; i < len(cells); {
		j := i + 1
		for j < len(cells) && cells[j].Row == cells[i].Row {
			j++
		}
		s.rows = append(s.rows, rowSpan{row: cells[i].Row, start: int32(i), end: int32(j)})
		i = j
	}
	s.filter = newBloom(len(s.rows))
	for i := range s.rows {
		s.filter.add(s.rows[i].row)
	}
	return s
}

// writeSegment persists sorted cells as a new segment file.
func writeSegment(path string, id uint64, cells []Cell) (*segment, error) {
	body := make([]byte, 0, 64*len(cells))
	for i := range cells {
		body = encodeCell(body, &cells[i])
	}
	buf := make([]byte, 16, 16+len(body))
	le := binary.LittleEndian
	le.PutUint32(buf[0:], segMagic)
	le.PutUint32(buf[4:], uint32(len(cells)))
	le.PutUint32(buf[8:], logio.Checksum(body))
	buf = append(buf, body...)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return nil, fmt.Errorf("hbase: write segment: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return nil, fmt.Errorf("hbase: commit segment: %w", err)
	}
	return newSegment(id, path, cells), nil
}

// openSegment loads and verifies a segment file.
func openSegment(path string, id uint64) (*segment, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hbase: read segment: %w", err)
	}
	if len(buf) < 16 || binary.LittleEndian.Uint32(buf[0:]) != segMagic {
		return nil, fmt.Errorf("hbase: segment %s: bad header", path)
	}
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	wantCRC := binary.LittleEndian.Uint32(buf[8:])
	body := buf[16:]
	if logio.Checksum(body) != wantCRC {
		return nil, fmt.Errorf("hbase: segment %s: checksum mismatch", path)
	}
	cells := make([]Cell, 0, n)
	off := 0
	for i := 0; i < n; i++ {
		c, used, err := decodeCell(body[off:])
		if err != nil {
			return nil, fmt.Errorf("hbase: segment %s cell %d: %w", path, i, err)
		}
		cells = append(cells, c)
		off += used
	}
	return newSegment(id, path, cells), nil
}

// rowRange returns the half-open cell range of a row, going through the
// bloom filter first so absent rows usually cost two hashes, and rows
// that do exist cost one binary search over distinct rows (not cells).
func (s *segment) rowRange(row string) (lo, hi int, ok bool) {
	if !s.filter.has(row) {
		return 0, 0, false
	}
	i := sort.Search(len(s.rows), func(k int) bool { return s.rows[k].row >= row })
	if i < len(s.rows) && s.rows[i].row == row {
		return int(s.rows[i].start), int(s.rows[i].end), true
	}
	return 0, 0, false
}

// versions appends (to dst) all versions of one cell in this segment,
// newest first.
func (s *segment) versions(row, family, qualifier string, dst []Cell) []Cell {
	lo, hi, ok := s.rowRange(row)
	if !ok {
		return dst
	}
	return appendColRun(s.cells, lo, hi, family, qualifier, dst)
}

// scanRows appends every cell whose row is in [startRow, endRow) to dst
// (endRow "" means unbounded), walking the row index.
func (s *segment) scanRows(startRow, endRow string, dst []Cell) []Cell {
	i := sort.Search(len(s.rows), func(k int) bool { return s.rows[k].row >= startRow })
	for ; i < len(s.rows); i++ {
		sp := &s.rows[i]
		if endRow != "" && sp.row >= endRow {
			break
		}
		dst = append(dst, s.cells[sp.start:sp.end]...)
	}
	return dst
}
