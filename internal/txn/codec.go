package txn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary codec for transaction logs. The format is a fixed 40-byte
// little-endian record per transaction preceded by a magic header; it is the
// file `titant gen` writes and `titant loadgen -replay` reads, and its record
// is the payload of the ingest event log.

const (
	codecMagic   = 0x54495441 // "TITA"
	codecVersion = 1
	recordSize   = 40
)

// RecordSize is the fixed encoded size of one transaction record. Exposed
// for callers that embed codec records in their own framing (the ingest
// event log wraps each record in a durability envelope).
const RecordSize = recordSize

// EncodeRecord writes t's fixed-size record into dst, which must be at
// least RecordSize bytes. Allocation-free.
func EncodeRecord(dst []byte, t *Transaction) {
	encodeRecord((*[recordSize]byte)(dst[:recordSize]), t)
}

// DecodeRecord decodes one fixed-size record from src, applying the same
// strict flags-byte validation as ReadLog: only bit 0 (fraud) is defined,
// so any other set bit marks bytes this codec version did not write.
func DecodeRecord(src []byte) (Transaction, error) {
	if len(src) < recordSize {
		return Transaction{}, fmt.Errorf("txn: record too short: %d bytes, want %d", len(src), recordSize)
	}
	if src[31]&^1 != 0 {
		return Transaction{}, fmt.Errorf("txn: record has unknown flag bits %#x", src[31])
	}
	return decodeRecord((*[recordSize]byte)(src[:recordSize])), nil
}

// WriteLog writes transactions to w in the binary log format.
func WriteLog(w io.Writer, ts []Transaction) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], codecMagic)
	binary.LittleEndian.PutUint32(hdr[4:], codecVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(ts)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("txn: write header: %w", err)
	}
	var rec [recordSize]byte
	for i := range ts {
		encodeRecord(&rec, &ts[i])
		if _, err := bw.Write(rec[:]); err != nil {
			return fmt.Errorf("txn: write record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

func encodeRecord(rec *[recordSize]byte, t *Transaction) {
	le := binary.LittleEndian
	le.PutUint64(rec[0:], uint64(t.ID))
	le.PutUint32(rec[8:], uint32(t.Day))
	le.PutUint32(rec[12:], uint32(t.Sec))
	le.PutUint32(rec[16:], uint32(t.From))
	le.PutUint32(rec[20:], uint32(t.To))
	le.PutUint32(rec[24:], math.Float32bits(t.Amount))
	le.PutUint16(rec[28:], t.TransCity)
	rec[30] = byte(t.Channel)
	flags := byte(0)
	if t.Fraud {
		flags = 1
	}
	rec[31] = flags
	le.PutUint32(rec[32:], math.Float32bits(t.DeviceRisk))
	le.PutUint32(rec[36:], math.Float32bits(t.IPRisk))
}

func decodeRecord(rec *[recordSize]byte) Transaction {
	le := binary.LittleEndian
	return Transaction{
		ID:         TxnID(le.Uint64(rec[0:])),
		Day:        Day(int32(le.Uint32(rec[8:]))),
		Sec:        int32(le.Uint32(rec[12:])),
		From:       UserID(le.Uint32(rec[16:])),
		To:         UserID(le.Uint32(rec[20:])),
		Amount:     math.Float32frombits(le.Uint32(rec[24:])),
		TransCity:  le.Uint16(rec[28:]),
		Channel:    Channel(rec[30]),
		Fraud:      rec[31]&1 != 0,
		DeviceRisk: math.Float32frombits(le.Uint32(rec[32:])),
		IPRisk:     math.Float32frombits(le.Uint32(rec[36:])),
	}
}

// ReadLog reads a binary transaction log written by WriteLog.
func ReadLog(r io.Reader) ([]Transaction, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("txn: read header: %w", err)
	}
	le := binary.LittleEndian
	if le.Uint32(hdr[0:]) != codecMagic {
		return nil, fmt.Errorf("txn: bad magic %#x", le.Uint32(hdr[0:]))
	}
	if v := le.Uint32(hdr[4:]); v != codecVersion {
		return nil, fmt.Errorf("txn: unsupported version %d", v)
	}
	n := int(le.Uint32(hdr[8:]))
	// The header's record count is untrusted input: cap the preallocation
	// so a crafted 12-byte header cannot demand gigabytes up front. A
	// count beyond the cap grows normally — or fails at the first missing
	// record.
	pre := n
	if pre > 1<<16 {
		pre = 1 << 16
	}
	ts := make([]Transaction, 0, pre)
	var rec [recordSize]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("txn: read record %d/%d: %w", i, n, err)
		}
		// Only bit 0 (fraud) of the flags byte is defined; any other set
		// bit marks a log this codec version did not write.
		if rec[31]&^1 != 0 {
			return nil, fmt.Errorf("txn: record %d/%d has unknown flag bits %#x", i, n, rec[31])
		}
		ts = append(ts, decodeRecord(&rec))
	}
	return ts, nil
}
