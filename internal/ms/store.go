package ms

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"titant/internal/hbase"
	"titant/internal/txn"
)

// HBase layout (the paper's Figure 7): one row per user keyed "u:<id>",
// column family "bf" for the profile, column family "emb" for the user
// node embedding. Values are versioned by the upload timestamp, so the
// Model Server always reads "the latest version of user node embeddings
// and basic features".
const (
	FamilyBasic = "bf"
	FamilyEmb   = "emb"

	QualProfile = "profile"
	QualVector  = "vec"
)

// RowKey returns the HBase row key of a user.
func RowKey(u txn.UserID) string {
	var buf [16]byte
	return string(appendRowKey(buf[:0], u))
}

// appendRowKey appends RowKey(u) to dst.
func appendRowKey(dst []byte, u txn.UserID) []byte {
	return strconv.AppendInt(append(dst, 'u', ':'), int64(u), 10)
}

// encodeProfile packs a user profile into a fixed 24-byte value.
func encodeProfile(u *txn.User) []byte {
	b := make([]byte, 24)
	le := binary.LittleEndian
	le.PutUint32(b[0:], uint32(u.ID))
	b[4] = u.Age
	b[5] = byte(u.Gender)
	le.PutUint16(b[6:], u.HomeCity)
	le.PutUint16(b[8:], uint16(u.AccountAge))
	b[10] = u.DeviceCount
	b[11] = u.KYCLevel
	le.PutUint32(b[12:], math.Float32bits(u.AvgDailyTxns))
	le.PutUint32(b[16:], math.Float32bits(u.AvgAmount))
	if u.MerchantFlag {
		b[20] = 1
	}
	return b
}

func decodeProfile(b []byte) (txn.User, error) {
	if len(b) < 24 {
		return txn.User{}, fmt.Errorf("ms: profile value has %d bytes, want 24", len(b))
	}
	le := binary.LittleEndian
	return txn.User{
		ID:           txn.UserID(le.Uint32(b[0:])),
		Age:          b[4],
		Gender:       txn.Gender(b[5]),
		HomeCity:     le.Uint16(b[6:]),
		AccountAge:   txn.AccountAgeDays(le.Uint16(b[8:])),
		DeviceCount:  b[10],
		KYCLevel:     b[11],
		AvgDailyTxns: math.Float32frombits(le.Uint32(b[12:])),
		AvgAmount:    math.Float32frombits(le.Uint32(b[16:])),
		MerchantFlag: b[20] == 1,
	}, nil
}

// encodeVec packs an embedding as float32s.
func encodeVec(v []float32) []byte {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(x))
	}
	return b
}

func decodeVec(b []byte) []float32 {
	v := make([]float32, len(b)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return v
}

// Uploader writes users' serving fragments into HBase; the offline
// pipeline runs it after every training day ("every time offline training
// is completed, the data is uploaded to Ali-HBase by the version of date
// time").
type Uploader struct {
	Table   *hbase.Table
	Version int64 // timestamp for this upload wave; 0 = auto

	// Invalidate, when set, is called with each uploaded user's ID after
	// that user's fragments have all been written. Wire it to a serving
	// engine's InvalidateUser so a read-through user cache drops the
	// user's stale fragments the moment the store has accepted new ones.
	Invalidate func(txn.UserID)
}

// PutUser uploads one user's profile and (optional) embedding.
func (up *Uploader) PutUser(u *txn.User, emb []float32) error {
	row := RowKey(u.ID)
	if _, err := up.Table.Put(row, FamilyBasic, QualProfile, encodeProfile(u), up.Version); err != nil {
		return err
	}
	if emb != nil {
		if _, err := up.Table.Put(row, FamilyEmb, QualVector, encodeVec(emb), up.Version); err != nil {
			return err
		}
	}
	if up.Invalidate != nil {
		up.Invalidate(u.ID)
	}
	return nil
}

// userParts is what the Model Server fetches per endpoint: the decoded
// profile, and the embedding as the store wrote it — emb is the cell's own
// little-endian float32 bytes (hbase.Cell.Value is immutable and
// retainable), widened to float64 only as copyEmb writes the feature row.
// A cached entry therefore pins exactly the bytes the store already holds.
type userParts struct {
	user txn.User
	emb  []byte
}

// take records one of a user's store cells: the profile decodes, the
// embedding is kept as the cell's bytes. Other cells are not read online.
func (p *userParts) take(c *hbase.Cell) error {
	switch {
	case c.Family == FamilyBasic && c.Qualifier == QualProfile:
		u, err := decodeProfile(c.Value)
		if err != nil {
			return err
		}
		p.user = u
	case c.Family == FamilyEmb && c.Qualifier == QualVector:
		p.emb = c.Value
	}
	return nil
}

// fetchUser reads one user's row through the store's point-read visitor.
// A missing row yields zero fragments with found=false; the engine's
// strict-users policy decides whether that is an error (the default serves
// cold-start users with empty history).
func fetchUser(tab *hbase.Table, u txn.UserID) (userParts, bool, error) {
	out := userParts{user: txn.User{ID: u}}
	var derr error
	found, err := tab.VisitRow(RowKey(u), func(c *hbase.Cell) bool {
		derr = out.take(c)
		return derr == nil
	})
	if err == nil {
		err = derr
	}
	return out, found, err
}

// readRows is the batched store read under ScoreBatch: one multi-get lock
// round over the misses [lo, hi), all owned by tab. The visitor writes each
// cell straight into its user's slot of parts and found, which fetchUsers
// has reset.
func (fs *fetchScratch) readRows(tab *hbase.Table, lo, hi int) error {
	misses := fs.misses[lo:hi]
	var derr error
	err := tab.VisitRows(fs.rows[lo:hi], func(k int, c *hbase.Cell) bool {
		i := misses[k].idx
		fs.found[i] = true
		if e := fs.parts[i].take(c); e != nil {
			derr = fmt.Errorf("ms: fetch user %d: %w", fs.ids[i], e)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return derr
}
