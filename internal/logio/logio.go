// Package logio implements the CRC-framed record format shared by the
// durable logs in this repository: the hbase write-ahead log and the
// ingest event log (internal/eventlog). A frame is
//
//	u32 length | u32 crc32c(payload) | payload
//
// little-endian, Castagnoli polynomial. The framing makes two guarantees
// the log layers build on: a reader can always tell an intact record from
// a torn or corrupt one (the CRC covers the whole payload), and a scan of
// a crashed writer's file recovers exactly the fsynced prefix — the torn
// tail is reported, never silently decoded into phantom records.
package logio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// FrameOverhead is the per-record framing cost in bytes.
const FrameOverhead = 8

// MaxPayload caps a single frame's payload. The length prefix is untrusted
// input on the read side: without a cap, four corrupt bytes could demand a
// multi-gigabyte allocation before the CRC ever gets a chance to reject
// the frame.
const MaxPayload = 1 << 26 // 64 MiB

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of payload, for callers that frame records
// by hand (tests, inspection tools).
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, crcTable) }

// ErrStop is returned by a Scan callback to end the scan early. The frame
// that triggered it — and everything after — is counted as tail, exactly
// as if the record had failed its CRC: the caller's decoder judged the
// payload malformed, so the bytes are not trusted.
var ErrStop = errors.New("logio: stop scan")

// ErrTooLarge marks a frame whose declared length exceeds MaxPayload.
var ErrTooLarge = errors.New("logio: frame exceeds MaxPayload")

// ErrCorrupt marks a frame whose payload does not match its CRC.
var ErrCorrupt = errors.New("logio: frame CRC mismatch")

// Seal fills in the header of a frame built in place: FrameOverhead
// reserved bytes, then the payload.
func Seal(frame []byte) error {
	payload := frame[FrameOverhead:]
	if len(payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	return nil
}

// ReadFrame reads one frame off a stream and returns its payload in buf's
// storage. The declared length is a claim: past ErrTooLarge's bound the
// buffer still grows only as the bytes arrive, a megabyte ahead at most.
// A stream ending between frames is io.EOF, inside one
// io.ErrUnexpectedEOF; a payload failing its CRC is ErrCorrupt.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], FrameOverhead)[:FrameOverhead]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	length, want := int(binary.LittleEndian.Uint32(buf[0:])), binary.LittleEndian.Uint32(buf[4:])
	if length > MaxPayload {
		return buf[:0], fmt.Errorf("%w: %d bytes", ErrTooLarge, length)
	}
	for buf = buf[:0]; len(buf) < length; {
		buf = slices.Grow(buf, min(length-len(buf), 1<<20))
		n, err := io.ReadFull(r, buf[len(buf):min(cap(buf), length)])
		if buf = buf[:len(buf)+n]; err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return buf[:0], err
		}
	}
	if crc32.Checksum(buf, crcTable) != want {
		return buf[:0], ErrCorrupt
	}
	return buf, nil
}

// Writer frames payloads onto an underlying writer (typically a
// *bufio.Writer whose flush/fsync schedule the caller owns). Not safe for
// concurrent use; the owning log serialises appends.
type Writer struct {
	w   io.Writer
	hdr [FrameOverhead]byte
}

// NewWriter returns a frame writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Reset points the writer at a new underlying stream (e.g. after segment
// rotation), keeping the scratch header.
func (fw *Writer) Reset(w io.Writer) { fw.w = w }

// Append writes one framed payload and returns the bytes written
// (framing included). Allocation-free.
func (fw *Writer) Append(payload []byte) (int, error) {
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	le := binary.LittleEndian
	le.PutUint32(fw.hdr[0:], uint32(len(payload)))
	le.PutUint32(fw.hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return 0, err
	}
	if _, err := fw.w.Write(payload); err != nil {
		return 0, err
	}
	return FrameOverhead + len(payload), nil
}

// ScanResult reports how a Scan ended.
type ScanResult struct {
	// Records is the number of intact frames delivered to the callback.
	Records int
	// Clean is the byte length of the intact prefix: every frame inside
	// it passed its CRC and was accepted by the callback. A writer
	// recovering the file should truncate to Clean before appending, or
	// the garbage tail would wedge between old and new records.
	Clean int64
	// Tail is the number of bytes past the clean prefix: zero for a
	// cleanly-ended log, positive when the scan stopped at a torn or
	// corrupt frame. Whether a tail is tolerable is the caller's policy
	// (a crashed writer's final file: yes; a sealed mid-log segment: no).
	Tail int64
}

// Scan streams intact frames from r to fn, stopping at the first torn or
// corrupt frame. The payload slice passed to fn is reused between calls —
// callers must copy anything they keep. fn returning ErrStop ends the
// scan with the current frame counted as tail; any other error aborts the
// scan and is returned as-is (the caller's own failure, distinct from
// framing damage).
//
// The reader never panics on hostile input and never delivers a frame
// whose CRC does not match: corruption is only ever reported as tail,
// not decoded.
func Scan(r io.Reader, fn func(payload []byte) error) (ScanResult, error) {
	in := &counter{r: r}
	br := bufio.NewReaderSize(in, 1<<16)
	var res ScanResult
	var buf []byte
	for {
		var err error
		if buf, err = ReadFrame(br, buf); err == nil {
			if err = fn(buf); err != nil && !errors.Is(err, ErrStop) {
				return res, err
			}
		}
		if err != nil {
			// Everything past the clean prefix is the untrusted tail, read
			// or not.
			_, _ = io.Copy(io.Discard, br)
			res.Tail = in.n - res.Clean
			return res, nil
		}
		res.Records++
		res.Clean += int64(FrameOverhead + len(buf))
	}
}

// counter counts the bytes read through it.
type counter struct {
	r io.Reader
	n int64
}

func (c *counter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
