package hbase

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Cell identifies one versioned value in the store: row key, column family,
// qualifier (the paper's Figure 7 shows e.g. row "Zoe", family "basic
// features", qualifier "age").
//
// Value is immutable once written: the store never modifies or reuses a
// value's bytes — the MemStore, flush and compaction only move the slice
// header, and a segment read back from disk gives every value an
// allocation of its own. A reader may therefore keep a Value for as long
// as it likes (the Model Server caches embeddings this way); a retained
// value pins only its own bytes, not the segment it came from, and must
// not be written to.
type Cell struct {
	Row       string
	Family    string
	Qualifier string
	Value     []byte
	Timestamp int64 // version; larger is newer
	Tombstone bool
}

// Key returns the sort key of the cell's coordinate (excludes version).
// The separator \x00 may not appear in row/family/qualifier.
func (c *Cell) Key() string {
	return cellKey(c.Row, c.Family, c.Qualifier)
}

func cellKey(row, family, qualifier string) string {
	return row + "\x00" + family + "\x00" + qualifier
}

func splitKey(key string) (row, family, qualifier string, err error) {
	parts := strings.SplitN(key, "\x00", 3)
	if len(parts) != 3 {
		return "", "", "", fmt.Errorf("hbase: malformed key %q", key)
	}
	return parts[0], parts[1], parts[2], nil
}

func validateName(kind, s string) error {
	if s == "" {
		return fmt.Errorf("hbase: empty %s", kind)
	}
	if strings.ContainsRune(s, '\x00') {
		return fmt.Errorf("hbase: %s %q contains NUL", kind, s)
	}
	return nil
}

// cellHeaderSize is the fixed prefix of an encoded cell: three u16 name
// lengths, a u32 value length, an i64 timestamp and a u8 flag byte.
const cellHeaderSize = 19

// encodeCell appends the binary encoding of a cell to buf and returns it.
func encodeCell(buf []byte, c *Cell) []byte {
	var hdr [cellHeaderSize]byte
	le := binary.LittleEndian
	le.PutUint16(hdr[0:], uint16(len(c.Row)))
	le.PutUint16(hdr[2:], uint16(len(c.Family)))
	le.PutUint16(hdr[4:], uint16(len(c.Qualifier)))
	le.PutUint32(hdr[6:], uint32(len(c.Value)))
	le.PutUint64(hdr[10:], uint64(c.Timestamp))
	if c.Tombstone {
		hdr[18] = 1
	}
	buf = append(buf, hdr[:]...)
	buf = append(buf, c.Row...)
	buf = append(buf, c.Family...)
	buf = append(buf, c.Qualifier...)
	buf = append(buf, c.Value...)
	return buf
}

// decodeCell reads one cell from data, returning the cell and bytes consumed.
func decodeCell(data []byte) (Cell, int, error) {
	if len(data) < cellHeaderSize {
		return Cell{}, 0, fmt.Errorf("hbase: truncated cell header (%d bytes)", len(data))
	}
	le := binary.LittleEndian
	rl := int(le.Uint16(data[0:]))
	fl := int(le.Uint16(data[2:]))
	ql := int(le.Uint16(data[4:]))
	vl := int(le.Uint32(data[6:]))
	ts := int64(le.Uint64(data[10:]))
	tomb := data[18] == 1
	total := cellHeaderSize + rl + fl + ql + vl
	if len(data) < total {
		return Cell{}, 0, fmt.Errorf("hbase: truncated cell body (want %d, have %d)", total, len(data))
	}
	p := cellHeaderSize
	c := Cell{
		Row:       string(data[p : p+rl]),
		Family:    string(data[p+rl : p+rl+fl]),
		Qualifier: string(data[p+rl+fl : p+rl+fl+ql]),
		Timestamp: ts,
		Tombstone: tomb,
	}
	if vl > 0 {
		c.Value = append([]byte(nil), data[p+rl+fl+ql:total]...)
	}
	return c, total, nil
}
