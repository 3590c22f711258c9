// Package modeltest holds the serving-width fixture and the scoring
// benchmark the detector packages share, so every ensemble member is
// measured at the shape the Model Server runs: 52 basic features plus two
// 32-wide embeddings per row.
package modeltest

import (
	"fmt"
	"testing"

	"titant/internal/feature"
	"titant/internal/model"
	"titant/internal/rng"
)

// ServingCols is the feature width the bench fixture and the default
// serving pipeline assemble: feature.NumBasic + 2*32 embedding columns.
const ServingCols = feature.NumBasic + 2*32

// ServingData draws rows of ServingCols features shaped like assembled
// serving rows — a quarter of the basic columns are 0/1 flags, the rest
// continuous, the embedding half is zero-centred — and labels them by an
// interaction rule across both halves plus label noise.
func ServingData(rows int, seed uint64) (*feature.Matrix, []bool) {
	r := rng.New(seed)
	m := feature.NewMatrix(rows, ServingCols)
	labels := make([]bool, rows)
	for i := 0; i < rows; i++ {
		x := m.Row(i)
		for j := range x {
			switch {
			case j >= feature.NumBasic:
				x[j] = r.NormFloat64()
			case j%4 == 3:
				if r.Bool(0.3) {
					x[j] = 1
				}
			default:
				x[j] = r.Float64()
			}
		}
		y := (x[0] > 0.5 && x[1] < 0.3) || (x[17] > 0.8 && x[60] > 0.4) || (x[3] == 1 && x[90] < -0.8)
		if r.Bool(0.03) {
			y = !y
		}
		labels[i] = y
	}
	return m, labels
}

// benchPoolRows is how many distinct rows a sub-benchmark cycles through:
// 2048 rows of 116 float64 are 1.9 MB — they stay in L2, as rows the
// engine has just assembled do, while 2048 × trees × depth outcomes are
// more than a branch predictor memorises. Scoring one matrix over and over
// lets it learn every search and walk, and flatters a branchy scorer five
// times over at one row.
const benchPoolRows = 2048

// BenchScoreBatch times c through model.ScoreMatrixInto — the call the
// serving bundle makes — at a single Decide's one row, the wire batch's 64,
// the engine batch's 256 and the batch limit's 4096, reporting ns/row next
// to ns/op and allocs/op. Successive calls score successive windows of a
// row pool, as successive requests carry different transactions.
func BenchScoreBatch(b *testing.B, c model.Classifier) {
	const batchLimit = 4096
	pool, _ := ServingData(batchLimit, 2)
	for _, rows := range []int{1, 64, 256, batchLimit} {
		var views []*feature.Matrix
		for lo := 0; lo+rows <= max(rows, benchPoolRows); lo += rows {
			views = append(views, &feature.Matrix{Rows: rows, Cols: pool.Cols, Data: pool.Data[lo*pool.Cols : (lo+rows)*pool.Cols]})
		}
		dst := make([]float64, rows)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := model.ScoreMatrixInto(dst, c, views[i%len(views)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
