// Package feature implements TitAnt's basic-feature extraction (Section 3.2,
// Figure 1(a)): 52 hand-engineered features per transaction covering the
// transfer itself, its context, both user profiles, and historical
// aggregates computed from a reference window, plus the machinery to append
// node embeddings and to discretise features for LR/ID3/C5.0.
//
// The paper reports "a total of 52 basic features carefully extracted"; the
// feature list below matches that count and the categories shown in
// Figure 1(a) (user profile, transfer environment, aggregates).
package feature

import (
	"fmt"
	"math"
	"sort"

	"titant/internal/par"
	"titant/internal/txn"
)

// NumBasic is the number of basic features, matching the paper's 52.
const NumBasic = 52

// BasicNames names each basic feature column, index-aligned with the
// vectors produced by Extractor.Basic.
var BasicNames = [NumBasic]string{
	// Transaction (12)
	"amount", "log1p_amount", "amount_round100", "hour",
	"hour_sin", "hour_cos", "is_night", "day_of_week",
	"channel_balance", "channel_bankcard", "channel_credit", "device_risk",
	// Context (6)
	"ip_risk", "city_fraud_rate", "city_txn_share", "is_foreign_city",
	"amount_over_snd_avg", "log_amount_over_snd_avg",
	// Sender profile (10)
	"snd_age", "snd_gender_f", "snd_gender_m", "snd_account_age",
	"snd_device_count", "snd_kyc", "snd_avg_daily_txns", "snd_avg_amount",
	"snd_merchant", "snd_home_city_fraud_rate",
	// Receiver profile (10)
	"rcv_age", "rcv_gender_f", "rcv_gender_m", "rcv_account_age",
	"rcv_device_count", "rcv_kyc", "rcv_avg_daily_txns", "rcv_avg_amount",
	"rcv_merchant", "rcv_home_city_fraud_rate",
	// Pairwise & derived context (14). Note: per the paper, aggregated
	// *relational* information is carried by the node embeddings, not by
	// hand-built velocity counters; these remaining features are
	// profile/context derivatives.
	"amount_over_rcv_avg", "log_amount_over_rcv_avg",
	"band_morning", "band_afternoon", "band_evening", "band_night",
	"same_home_city", "trans_is_rcv_home", "age_gap",
	"log_snd_account_age", "log_rcv_account_age",
	"device_ip_product", "amount_round1000", "is_weekend",
}

// Matrix is a dense row-major feature matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns row i as a shared slice.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// CitySource provides O(1) reads of per-city statistics (smoothed fraud
// rate and traffic share). It is the only aggregate surface the 52 basic
// features consume at assembly time; CityTable satisfies it with a frozen
// snapshot, the streaming store (internal/feature/stream) with a live
// sliding window.
type CitySource interface {
	Lookup(c uint16) (fraud, share float64)
}

// Source is the full aggregate read surface: per-user velocity/diversity
// statistics, pairwise transfer priors, and per-city statistics. The batch
// *Aggregates (built once from a frozen reference window, the paper's T+1
// mode) and the streaming store (updated incrementally per transaction)
// both satisfy it, so the Extractor and the Model Server are indifferent
// to whether their statistics are a nightly snapshot or seconds old.
type Source interface {
	CitySource
	Stats(u txn.UserID) UserStats
	PairPrior(from, to txn.UserID) float64
	CityTable() CityTable
}

// City-table smoothing constants shared by the batch builder and the
// streaming store, so both produce bitwise-identical fraud rates from the
// same window contents: rate = (frauds + CitySmoothing*CityFraudPrior) /
// (total + CitySmoothing).
const (
	CitySmoothing  = 2.0  // Laplace pseudo-count
	CityFraudPrior = 0.01 // prior fraud rate pulled toward under no data
)

// userAgg is the per-user historical aggregate state.
type userAgg struct {
	outCount, inCount   float64
	outAmount, inAmount float64
	distinctRcv         map[txn.UserID]struct{}
	distinctSnd         map[txn.UserID]struct{}
	outDays, inDays     map[txn.Day]struct{}
}

// Aggregates holds reference-window statistics: per-user velocity/diversity
// counters, pairwise prior-transfer counts, and per-city empirical fraud
// rates. In production these are the values materialised into Ali-HBase by
// the nightly MaxCompute jobs; at test time they are one day stale, exactly
// as in the paper's T+1 mode.
type Aggregates struct {
	users     map[txn.UserID]*userAgg
	pairCount map[pairKey]float64
	cityFraud []float64 // smoothed fraud rate per city
	cityShare []float64 // share of total traffic per city
}

type pairKey struct{ from, to txn.UserID }

// BuildAggregates scans a reference window and materialises aggregates.
// numCities bounds the city tables; city codes >= numCities are clamped.
func BuildAggregates(ref []txn.Transaction, numCities int) *Aggregates {
	if numCities < 1 {
		numCities = 1
	}
	a := &Aggregates{
		users:     make(map[txn.UserID]*userAgg),
		pairCount: make(map[pairKey]float64),
		cityFraud: make([]float64, numCities),
		cityShare: make([]float64, numCities),
	}
	cityTotal := make([]float64, numCities)
	cityFraud := make([]float64, numCities)
	get := func(u txn.UserID) *userAgg {
		ua, ok := a.users[u]
		if !ok {
			ua = &userAgg{
				distinctRcv: make(map[txn.UserID]struct{}),
				distinctSnd: make(map[txn.UserID]struct{}),
				outDays:     make(map[txn.Day]struct{}),
				inDays:      make(map[txn.Day]struct{}),
			}
			a.users[u] = ua
		}
		return ua
	}
	for i := range ref {
		t := &ref[i]
		fu, tu := get(t.From), get(t.To)
		fu.outCount++
		fu.outAmount += float64(t.Amount)
		fu.distinctRcv[t.To] = struct{}{}
		fu.outDays[t.Day] = struct{}{}
		tu.inCount++
		tu.inAmount += float64(t.Amount)
		tu.distinctSnd[t.From] = struct{}{}
		tu.inDays[t.Day] = struct{}{}
		a.pairCount[pairKey{t.From, t.To}]++
		c := int(t.TransCity)
		if c >= numCities {
			c = numCities - 1
		}
		cityTotal[c]++
		if t.Fraud {
			cityFraud[c]++
		}
	}
	var total float64
	for _, n := range cityTotal {
		total += n
	}
	for c := range a.cityFraud {
		a.cityFraud[c] = (cityFraud[c] + CitySmoothing*CityFraudPrior) / (cityTotal[c] + CitySmoothing)
		if total > 0 {
			a.cityShare[c] = cityTotal[c] / total
		}
	}
	return a
}

// Extractor turns transactions into basic-feature vectors using user
// profiles and an aggregate source — batch-built for offline training,
// streaming for the online path.
type Extractor struct {
	users []txn.User
	src   Source
}

// NewExtractor builds an extractor over the profile table and an aggregate
// source (nil falls back to empty batch aggregates).
func NewExtractor(users []txn.User, src Source) *Extractor {
	if src == nil {
		src = BuildAggregates(nil, 1)
	}
	return &Extractor{users: users, src: src}
}

// UserStats is the per-user aggregate fragment a Source serves: the
// nightly snapshot's (Aggregates) or the live window's.
type UserStats struct {
	OutCount, InCount   float64
	OutAmount, InAmount float64
	DistinctRcv         float64
	DistinctSnd         float64
	OutDays, InDays     float64
}

// Stats returns the aggregate fragment of user u (zero for unseen users).
func (a *Aggregates) Stats(u txn.UserID) UserStats {
	ua, ok := a.users[u]
	if !ok {
		return UserStats{}
	}
	return UserStats{
		OutCount: ua.outCount, InCount: ua.inCount,
		OutAmount: ua.outAmount, InAmount: ua.inAmount,
		DistinctRcv: float64(len(ua.distinctRcv)),
		DistinctSnd: float64(len(ua.distinctSnd)),
		OutDays:     float64(len(ua.outDays)),
		InDays:      float64(len(ua.inDays)),
	}
}

// PairPrior returns how many times from already transferred to to in the
// reference window.
func (a *Aggregates) PairPrior(from, to txn.UserID) float64 {
	return a.pairCount[pairKey{from, to}]
}

// CityTable is the per-city feature table (smoothed fraud rate and traffic
// share). It is small enough to travel inside the model bundle.
type CityTable struct {
	Fraud []float64
	Share []float64
}

// CityTable exports the aggregates' city statistics.
func (a *Aggregates) CityTable() CityTable {
	return CityTable{
		Fraud: append([]float64(nil), a.cityFraud...),
		Share: append([]float64(nil), a.cityShare...),
	}
}

// Lookup returns the (fraud rate, traffic share) of city c, clamping
// out-of-range codes.
func (ct CityTable) Lookup(c uint16) (fraud, share float64) {
	i := int(c)
	if len(ct.Fraud) == 0 {
		return 0, 0
	}
	if i >= len(ct.Fraud) {
		i = len(ct.Fraud) - 1
	}
	return ct.Fraud[i], ct.Share[i]
}

// Lookup reads city c's statistics directly from the aggregates without
// snapshotting, satisfying CitySource.
func (a *Aggregates) Lookup(c uint16) (fraud, share float64) {
	return CityTable{Fraud: a.cityFraud, Share: a.cityShare}.Lookup(c)
}

// Aggregates is the batch implementation of the shared read surface.
var _ Source = (*Aggregates)(nil)

// Basic writes the 52 basic features of t into dst (which must have length
// NumBasic) and returns it. Callers may pass nil to allocate.
func (e *Extractor) Basic(t *txn.Transaction, dst []float64) []float64 {
	fu := &e.users[t.From]
	tu := &e.users[t.To]
	return BasicFromParts(t, fu, tu, e.src, dst)
}

// BasicFromParts assembles the 52 basic features from the transaction plus
// independently fetched profile fragments - the exact computation the
// Model Server performs after pulling both users' rows from Ali-HBase
// (Figure 5). city supplies the per-city statistics: a frozen CityTable
// on the T+1 path, the live streaming window on the online path.
func BasicFromParts(t *txn.Transaction, fu, tu *txn.User, city CitySource, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, NumBasic)
	}
	if len(dst) != NumBasic {
		panic(fmt.Sprintf("feature: dst has %d slots, want %d", len(dst), NumBasic))
	}
	amount := float64(t.Amount)
	hour := float64(t.Sec) / 3600
	k := 0
	put := func(v float64) { dst[k] = v; k++ }
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}

	// Transaction (12)
	put(amount)
	put(math.Log1p(amount))
	put(b2f(math.Mod(amount, 100) == 0 && amount >= 100))
	put(hour)
	put(math.Sin(2 * math.Pi * hour / 24))
	put(math.Cos(2 * math.Pi * hour / 24))
	put(b2f(hour < 6))
	put(float64(int(t.Day) % 7))
	put(b2f(t.Channel == txn.ChannelBalance))
	put(b2f(t.Channel == txn.ChannelBankCard))
	put(b2f(t.Channel == txn.ChannelCredit))
	put(float64(t.DeviceRisk))

	// Context (6)
	put(float64(t.IPRisk))
	cf, cs := city.Lookup(t.TransCity)
	put(cf)
	put(cs)
	put(b2f(t.TransCity != fu.HomeCity))
	avgAmt := math.Max(float64(fu.AvgAmount), 1)
	put(amount / avgAmt)
	put(math.Log1p(amount / avgAmt))

	// Sender profile (10)
	putProfile(put, b2f, fu, city)
	// Receiver profile (10)
	putProfile(put, b2f, tu, city)

	// Pairwise & derived context (14)
	rcvAvg := math.Max(float64(tu.AvgAmount), 1)
	put(amount / rcvAvg)
	put(math.Log1p(amount / rcvAvg))
	put(b2f(hour >= 6 && hour < 12))
	put(b2f(hour >= 12 && hour < 18))
	put(b2f(hour >= 18))
	put(b2f(hour < 6))
	put(b2f(fu.HomeCity == tu.HomeCity))
	put(b2f(t.TransCity == tu.HomeCity))
	put(math.Abs(float64(fu.Age) - float64(tu.Age)))
	put(math.Log1p(float64(fu.AccountAge)))
	put(math.Log1p(float64(tu.AccountAge)))
	put(float64(t.DeviceRisk) * float64(t.IPRisk))
	put(b2f(math.Mod(amount, 1000) == 0 && amount >= 1000))
	put(b2f(int(t.Day)%7 >= 5))

	if k != NumBasic {
		panic(fmt.Sprintf("feature: wrote %d features, want %d", k, NumBasic))
	}
	return dst
}

func putProfile(put func(float64), b2f func(bool) float64, u *txn.User, city CitySource) {
	put(float64(u.Age))
	put(b2f(u.Gender == txn.GenderFemale))
	put(b2f(u.Gender == txn.GenderMale))
	put(float64(u.AccountAge))
	put(float64(u.DeviceCount))
	put(float64(u.KYCLevel))
	put(float64(u.AvgDailyTxns))
	put(math.Log1p(float64(u.AvgAmount)))
	put(b2f(u.MerchantFlag))
	cf, _ := city.Lookup(u.HomeCity)
	put(cf)
}

// BasicMatrix extracts basic features for every transaction into a matrix.
func (e *Extractor) BasicMatrix(ts []txn.Transaction) *Matrix {
	m := NewMatrix(len(ts), NumBasic)
	for i := range ts {
		e.Basic(&ts[i], m.Row(i))
	}
	return m
}

// LabelsOf returns the fraud labels of a transaction slice.
func LabelsOf(ts []txn.Transaction) []bool {
	ls := make([]bool, len(ts))
	for i := range ts {
		ls[i] = ts[i].Fraud
	}
	return ls
}

// EmbeddingLookup maps a user to an embedding vector; it returns nil when
// the user was absent from the window the embedding was trained on
// (cold-start), in which case zeros are appended.
type EmbeddingLookup func(u txn.UserID) []float32

// WithEmbeddings widens basic matrix m by appending the sender's and
// receiver's embeddings (each of dimension dim) for every transaction; one
// lookup may be nil to skip that side. The paper concatenates user node
// embeddings with basic features (Section 3.3); the transaction-level
// instance gets both endpoints' vectors.
func WithEmbeddings(m *Matrix, ts []txn.Transaction, dim int, lookup EmbeddingLookup) *Matrix {
	if m.Rows != len(ts) {
		panic(fmt.Sprintf("feature: %d matrix rows vs %d transactions", m.Rows, len(ts)))
	}
	out := NewMatrix(m.Rows, m.Cols+2*dim)
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		copy(dst, src)
		if emb := lookup(ts[i].From); emb != nil {
			for j := 0; j < dim && j < len(emb); j++ {
				dst[m.Cols+j] = float64(emb[j])
			}
		}
		if emb := lookup(ts[i].To); emb != nil {
			for j := 0; j < dim && j < len(emb); j++ {
				dst[m.Cols+dim+j] = float64(emb[j])
			}
		}
	}
	return out
}

// Concat appends the columns of b to a row-wise. Both must have the same
// number of rows.
func Concat(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("feature: concat %d rows vs %d rows", a.Rows, b.Rows))
	}
	out := NewMatrix(a.Rows, a.Cols+b.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i), a.Row(i))
		copy(out.Row(i)[a.Cols:], b.Row(i))
	}
	return out
}

// Discretizer bins continuous features into equal-frequency buckets. LR,
// ID3 and C5.0 all consume discretised inputs in the paper (LR's best bin
// size is 200; the trees need categorical-ish splits).
type Discretizer struct {
	Cuts [][]float64 // ascending cut points per column, exported for gob
}

// FitDiscretizer learns per-column quantile cut points from m, producing at
// most `bins` buckets per column. Columns with few distinct values get
// fewer buckets.
func FitDiscretizer(m *Matrix, bins int) *Discretizer {
	if bins < 2 {
		panic("feature: need at least 2 bins")
	}
	d := &Discretizer{Cuts: make([][]float64, m.Cols)}
	// Columns are independent: each range of them sorts in its own buffer.
	par.Ranges(m.Cols, m.Rows*m.Cols, func(lo, hi int) {
		col := make([]float64, m.Rows)
		for j := lo; j < hi; j++ {
			for i := 0; i < m.Rows; i++ {
				col[i] = m.At(i, j)
			}
			sort.Float64s(col)
			var cuts []float64
			for b := 1; b < bins; b++ {
				q := col[(b*m.Rows)/bins]
				// A cut at the column minimum would create an empty lowest
				// bucket; skip it (and dedupe equal quantiles).
				if q > col[0] && (len(cuts) == 0 || q > cuts[len(cuts)-1]) {
					cuts = append(cuts, q)
				}
			}
			d.Cuts[j] = cuts
		}
	})
	return d
}

// NumCols returns the number of columns the discretizer was fitted on.
func (d *Discretizer) NumCols() int { return len(d.Cuts) }

// BytePackable reports whether every column fits the byte-packed Binned
// representation (at most 256 buckets); Transform panics when it does
// not. Like Transform and Binned it concerns the training representation
// only: scoring bins on the fly (Bin) or not at all (the compiled GBDT).
func (d *Discretizer) BytePackable() bool {
	for j := range d.Cuts {
		if d.NumBins(j) > 256 {
			return false
		}
	}
	return true
}

// NumBins returns the bucket count of column j.
func (d *Discretizer) NumBins(j int) int { return len(d.Cuts[j]) + 1 }

// Bin maps value v in column j to its bucket in [0, NumBins(j)).
func (d *Discretizer) Bin(j int, v float64) int {
	cuts := d.Cuts[j]
	lo, hi := 0, len(cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if v >= cuts[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Transform bins every element of m, returning a row-major byte matrix
// (bins must be <= 256 for this representation). It is the training-side
// representation — the trainers histogram and split on it — and nothing on
// the serving path calls it: a search on every column of every row costs
// more than any detector's walk over the raw values.
func (d *Discretizer) Transform(m *Matrix) *Binned {
	if m.Cols != len(d.Cuts) {
		panic(fmt.Sprintf("feature: matrix has %d cols, discretizer %d", m.Cols, len(d.Cuts)))
	}
	b := &Binned{Rows: m.Rows, Cols: m.Cols, Data: make([]uint8, m.Rows*m.Cols), NumBins: make([]int, m.Cols)}
	for j := range d.Cuts {
		n := d.NumBins(j)
		if n > 256 {
			panic("feature: more than 256 bins cannot be byte-packed")
		}
		b.NumBins[j] = n
	}
	par.Ranges(m.Rows, m.Rows*m.Cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out := b.Row(i)
			for j, v := range m.Row(i) {
				out[j] = uint8(d.Bin(j, v))
			}
		}
	})
	return b
}

// Binned is a byte-packed discretised matrix: what Train functions
// consume, never what a served model scores.
type Binned struct {
	Rows, Cols int
	Data       []uint8
	NumBins    []int // buckets per column
}

// Row returns row i as a shared slice.
func (b *Binned) Row(i int) []uint8 { return b.Data[i*b.Cols : (i+1)*b.Cols] }

// At returns element (i, j).
func (b *Binned) At(i, j int) uint8 { return b.Data[i*b.Cols+j] }
