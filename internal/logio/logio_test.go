package logio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func frameAll(t *testing.T, payloads [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, p := range payloads {
		n, err := w.Append(p)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if n != FrameOverhead+len(p) {
			t.Fatalf("Append reported %d bytes, want %d", n, FrameOverhead+len(p))
		}
	}
	return buf.Bytes()
}

func TestScanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payloads := make([][]byte, 100)
	for i := range payloads {
		p := make([]byte, rng.Intn(200))
		rng.Read(p)
		payloads[i] = p
	}
	data := frameAll(t, payloads)

	var got [][]byte
	res, err := Scan(bytes.NewReader(data), func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if res.Records != len(payloads) || res.Tail != 0 || res.Clean != int64(len(data)) {
		t.Fatalf("Scan result %+v, want records=%d clean=%d tail=0", res, len(payloads), len(data))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestScanTornTail(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	data := frameAll(t, payloads)

	// Truncate at every possible byte length: the scan must recover
	// exactly the records whose frames are fully intact, never more.
	for cut := 0; cut <= len(data); cut++ {
		var n int
		res, err := Scan(bytes.NewReader(data[:cut]), func(p []byte) error {
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("cut=%d: Scan: %v", cut, err)
		}
		want := 0
		off := 0
		for _, p := range payloads {
			off += FrameOverhead + len(p)
			if cut >= off {
				want++
			}
		}
		if n != want || res.Records != want {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, n, want)
		}
		if res.Clean+res.Tail != int64(cut) {
			t.Fatalf("cut=%d: clean=%d tail=%d, sum != %d", cut, res.Clean, res.Tail, cut)
		}
	}
}

func TestScanCorruptByte(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	data := frameAll(t, payloads)

	// Flip a byte inside the second record's payload: scan keeps record
	// one, rejects the rest as tail.
	pos := FrameOverhead + len(payloads[0]) + FrameOverhead + 1
	mut := append([]byte(nil), data...)
	mut[pos] ^= 0xff

	var n int
	res, err := Scan(bytes.NewReader(mut), func(p []byte) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != 1 || res.Records != 1 {
		t.Fatalf("recovered %d records after corruption, want 1", n)
	}
	wantClean := int64(FrameOverhead + len(payloads[0]))
	if res.Clean != wantClean || res.Clean+res.Tail != int64(len(mut)) {
		t.Fatalf("clean=%d tail=%d, want clean=%d and full coverage of %d bytes",
			res.Clean, res.Tail, wantClean, len(mut))
	}
}

func TestScanHugeLength(t *testing.T) {
	var buf [FrameOverhead]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(MaxPayload+1))
	res, err := Scan(bytes.NewReader(buf[:]), func(p []byte) error {
		t.Fatal("callback fired on oversize frame")
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if res.Records != 0 || res.Clean != 0 || res.Tail != FrameOverhead {
		t.Fatalf("oversize frame not rejected as tail: %+v", res)
	}
}

func TestScanErrStop(t *testing.T) {
	payloads := [][]byte{[]byte("keep"), []byte("stop-here"), []byte("never-seen")}
	data := frameAll(t, payloads)

	var n int
	res, err := Scan(bytes.NewReader(data), func(p []byte) error {
		if string(p) == "stop-here" {
			return ErrStop
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if n != 1 || res.Records != 1 {
		t.Fatalf("ErrStop did not end scan after 1 record: n=%d res=%+v", n, res)
	}
	if res.Clean+res.Tail != int64(len(data)) {
		t.Fatalf("clean+tail=%d, want %d", res.Clean+res.Tail, len(data))
	}
}

func TestScanCallbackError(t *testing.T) {
	data := frameAll(t, [][]byte{[]byte("x")})
	boom := errors.New("boom")
	_, err := Scan(bytes.NewReader(data), func(p []byte) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

func TestAppendTooLarge(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if _, err := w.Append(make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append not rejected: %v", err)
	}
}

// TestReadFrame: Seal and ReadFrame agree on the layout Writer.Append
// writes, a damaged frame is an error and never a payload, and a declared
// length is only a claim — the buffer grows as bytes arrive, a megabyte
// ahead at most, so eight hostile bytes cannot demand MaxPayload.
func TestReadFrame(t *testing.T) {
	frame := append(make([]byte, FrameOverhead), "payload"...)
	if err := Seal(frame); err != nil {
		t.Fatal(err)
	}
	var viaWriter bytes.Buffer
	if _, err := NewWriter(&viaWriter).Append([]byte("payload")); err != nil || !bytes.Equal(viaWriter.Bytes(), frame) {
		t.Fatalf("Seal and Writer.Append disagree: %x vs %x (%v)", frame, viaWriter.Bytes(), err)
	}
	r := bytes.NewReader(append(append([]byte{}, frame...), frame...))
	var buf []byte
	for i := 0; i < 2; i++ {
		var err error
		if buf, err = ReadFrame(r, buf); err != nil || string(buf) != "payload" {
			t.Fatalf("frame %d: %q, %v", i, buf, err)
		}
	}
	if _, err := ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2]), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn frame: %v, want io.ErrUnexpectedEOF", err)
	}
	flipped := append([]byte{}, frame...)
	flipped[len(flipped)-1] ^= 1
	if _, err := ReadFrame(bytes.NewReader(flipped), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped bit: %v, want ErrCorrupt", err)
	}
	hostile := make([]byte, FrameOverhead+100)
	binary.LittleEndian.PutUint32(hostile, MaxPayload+1)
	if _, err := ReadFrame(bytes.NewReader(hostile), nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("length past MaxPayload: %v, want ErrTooLarge", err)
	}
	binary.LittleEndian.PutUint32(hostile, MaxPayload)
	got, err := ReadFrame(bytes.NewReader(hostile), nil)
	if err != io.ErrUnexpectedEOF || cap(got) > 2<<20 {
		t.Fatalf("a %d-byte claim backed by 100 bytes: %v, buffer grown to %d", MaxPayload, err, cap(got))
	}
}
