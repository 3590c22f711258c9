package txn

import (
	"bytes"
	"math/rand"
	"testing"
)

func randomTxns(rng *rand.Rand, n int) []Transaction {
	ts := make([]Transaction, n)
	for i := range ts {
		ts[i] = Transaction{
			ID:         TxnID(rng.Int63()),
			Day:        Day(rng.Intn(TimelineDays)),
			Sec:        int32(rng.Intn(86400)),
			From:       UserID(rng.Intn(10000)),
			To:         UserID(rng.Intn(10000)),
			Amount:     rng.Float32() * 5000,
			TransCity:  uint16(rng.Intn(400)),
			DeviceRisk: rng.Float32(),
			IPRisk:     rng.Float32(),
			Channel:    Channel(rng.Intn(NumChannels)),
			Fraud:      rng.Intn(50) == 0,
		}
	}
	return ts
}

// TestReadLogCuts is the truncation property test: on random logs, the
// intact log must read back exactly the records written, and every shorter
// cut — empty, mid-header, at each record boundary, mid-record — must fail.
func TestReadLogCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		ts := randomTxns(rng, rng.Intn(200))
		var buf bytes.Buffer
		if err := WriteLog(&buf, ts); err != nil {
			t.Fatalf("trial %d: WriteLog: %v", trial, err)
		}
		full := buf.Bytes()

		got, err := ReadLog(bytes.NewReader(full))
		if err != nil {
			t.Fatalf("trial %d: intact log: %v", trial, err)
		}
		if len(got) != len(ts) {
			t.Fatalf("trial %d: %d records read, want %d", trial, len(got), len(ts))
		}
		for i := range ts {
			if got[i] != ts[i] {
				t.Fatalf("trial %d: record %d mismatch:\n got %+v\nwant %+v", trial, i, got[i], ts[i])
			}
		}

		cuts := []int{0, 5, 11}
		for i := 0; i < len(ts); i++ {
			cuts = append(cuts, 12+i*RecordSize)
		}
		for i := 0; i < 10; i++ {
			cuts = append(cuts, rng.Intn(len(full)))
		}
		for _, cut := range cuts {
			if _, err := ReadLog(bytes.NewReader(full[:cut])); err == nil {
				t.Fatalf("trial %d: log cut at %d of %d bytes read without error", trial, cut, len(full))
			}
		}
	}
}

func TestEncodeDecodeRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	buf := make([]byte, RecordSize)
	for _, tx := range randomTxns(rng, 100) {
		EncodeRecord(buf, &tx)
		got, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("DecodeRecord: %v", err)
		}
		if got != tx {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tx)
		}
	}
}

func TestDecodeRecordStrictFlags(t *testing.T) {
	tx := Transaction{ID: 1, Fraud: true}
	buf := make([]byte, RecordSize)
	EncodeRecord(buf, &tx)
	buf[31] |= 0x80
	if _, err := DecodeRecord(buf); err == nil {
		t.Fatal("unknown flag bits accepted")
	}
	if _, err := DecodeRecord(buf[:RecordSize-1]); err == nil {
		t.Fatal("short record accepted")
	}
}
