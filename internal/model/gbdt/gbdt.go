// Package gbdt implements the paper's Gradient Boosting Decision Tree
// detector: 400 regression trees of depth 3 with root-mean-square error as
// the objective and 0.4 row/column subsampling to prevent overfitting
// (Section 5.1). Trees are grown level-wise on histogram-binned features,
// the same technique production systems use to make boosting tractable at
// scale.
package gbdt

import (
	"encoding/gob"
	"fmt"
	"sync"

	"titant/internal/feature"
	"titant/internal/model"
	"titant/internal/par"
	"titant/internal/rng"
)

func init() { gob.Register(&Model{}) }

// Config holds GBDT hyperparameters.
type Config struct {
	Trees        int     // boosting rounds (paper: 400)
	Depth        int     // tree depth (paper: 3)
	LearningRate float64 // shrinkage
	Subsample    float64 // row subsample per tree (paper: 0.4)
	ColSample    float64 // feature subsample per tree (paper: 0.4)
	Bins         int     // histogram bins
	MinLeaf      int     // minimum rows per leaf
	Lambda       float64 // L2 on leaf values
	Seed         uint64
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		Trees: 400, Depth: 3, LearningRate: 0.1,
		Subsample: 0.4, ColSample: 0.4,
		Bins: 64, MinLeaf: 5, Lambda: 1, Seed: 1,
	}
}

// TreeNode is a node of one regression tree, stored in a flat array:
// children of node i are 2i+1 and 2i+2. Exported for gob.
type TreeNode struct {
	Col   int32   // split feature; -1 marks a leaf
	Thr   uint8   // go left when bin <= Thr
	Value float64 // leaf output
}

// Tree is one regression tree as a complete array of depth Depth.
type Tree struct {
	Nodes []TreeNode
}

// Model is a trained gradient-boosted ensemble with its embedded binner.
type Model struct {
	TreesArr []Tree
	Disc     *feature.Discretizer
	Base     float64 // initial prediction (label mean)
	Features int
	Depth    int

	// The compiled predictor is built lazily from the exported fields on
	// the first score, so gob-decoded models (bundles) compile too.
	compileOnce sync.Once
	compiledSoA *compiled // nil when the trees cannot be compiled
}

var (
	_ model.Classifier  = (*Model)(nil)
	_ model.BatchScorer = (*Model)(nil)
)

// Train fits the ensemble on raw features and boolean labels. The RMSE
// objective regresses residuals toward the 0/1 labels, so raw scores live
// in [0, 1]-ish and rank transactions by fraud suspicion.
func Train(m *feature.Matrix, labels []bool, cfg Config) *Model {
	if m.Rows != len(labels) {
		panic(fmt.Sprintf("gbdt: %d rows vs %d labels", m.Rows, len(labels)))
	}
	if cfg.Trees < 1 || cfg.Depth < 1 || cfg.Bins < 2 || cfg.Bins > 256 ||
		cfg.Subsample <= 0 || cfg.Subsample > 1 || cfg.ColSample <= 0 || cfg.ColSample > 1 {
		panic(fmt.Sprintf("gbdt: bad config %+v", cfg))
	}
	disc := feature.FitDiscretizer(m, cfg.Bins)
	binned := disc.Transform(m)

	y := make([]float64, m.Rows)
	var base float64
	for i, l := range labels {
		if l {
			y[i] = 1
			base++
		}
	}
	base /= float64(m.Rows)

	out := &Model{
		Disc: disc, Base: base, Features: m.Cols, Depth: cfg.Depth,
		TreesArr: make([]Tree, 0, cfg.Trees),
	}

	pred := make([]float64, m.Rows)
	grad := make([]float64, m.Rows) // negative gradient = residual for RMSE
	for i := range pred {
		pred[i] = base
		grad[i] = y[i] - base
	}

	r := rng.New(cfg.Seed)
	nSample := int(cfg.Subsample * float64(m.Rows))
	if nSample < 1 {
		nSample = 1
	}
	nCols := int(cfg.ColSample * float64(m.Cols))
	if nCols < 1 {
		nCols = 1
	}
	rows := make([]int, m.Rows)
	for i := range rows {
		rows[i] = i
	}
	b := newTreeBuilder(binned, cfg)

	for t := 0; t < cfg.Trees; t++ {
		tr := r.Split(uint64(t) + 1)
		// Row subsample: partial Fisher-Yates for the first nSample slots.
		for i := 0; i < nSample; i++ {
			j := i + tr.Intn(m.Rows-i)
			rows[i], rows[j] = rows[j], rows[i]
		}
		// Column subsample.
		cols := tr.Perm(m.Cols)[:nCols]
		tree := b.build(rows[:nSample], cols, grad, tr)
		// Scale leaves by the learning rate and update all predictions.
		for i := range tree.Nodes {
			if tree.Nodes[i].Col < 0 {
				tree.Nodes[i].Value *= cfg.LearningRate
			}
		}
		par.Ranges(m.Rows, m.Rows*cfg.Depth, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pred[i] += tree.eval(binned.Row(i))
				grad[i] = y[i] - pred[i]
			}
		})
		out.TreesArr = append(out.TreesArr, tree)
	}
	return out
}

// treeBuilder grows one level-wise tree over pre-binned data.
type treeBuilder struct {
	data *feature.Binned
	cfg  Config
	// node assignment of each training row during growth
	nodeOf []int32
	// histograms: [node][col][bin] -> (sum, count)
	histSum [][]float64
	histCnt [][]float64
}

func newTreeBuilder(data *feature.Binned, cfg Config) *treeBuilder {
	maxNodes := 1 << cfg.Depth
	b := &treeBuilder{
		data:    data,
		cfg:     cfg,
		nodeOf:  make([]int32, data.Rows),
		histSum: make([][]float64, maxNodes),
		histCnt: make([][]float64, maxNodes),
	}
	for i := range b.histSum {
		b.histSum[i] = make([]float64, data.Cols*cfg.Bins)
		b.histCnt[i] = make([]float64, data.Cols*cfg.Bins)
	}
	return b
}

func (b *treeBuilder) build(rows []int, cols []int, grad []float64, r *rng.RNG) Tree {
	cfg := b.cfg
	nNodes := 1<<(cfg.Depth+1) - 1
	tree := Tree{Nodes: make([]TreeNode, nNodes)}
	for i := range tree.Nodes {
		tree.Nodes[i].Col = -1
	}
	for _, i := range rows {
		b.nodeOf[i] = 0
	}
	for depth := 0; depth < cfg.Depth; depth++ {
		// Node-local index = flat index - (2^depth - 1).
		first := int32(1<<depth) - 1
		count := 1 << depth
		// Each range of the sampled columns zeroes its cells of every
		// node in this level, then one pass over the rows, in order,
		// accumulates them.
		par.Ranges(len(cols), len(rows)*len(cols), func(lo, hi int) {
			for n := 0; n < count; n++ {
				for _, c := range cols[lo:hi] {
					clear(b.histSum[n][c*cfg.Bins : (c+1)*cfg.Bins])
					clear(b.histCnt[n][c*cfg.Bins : (c+1)*cfg.Bins])
				}
			}
			for _, i := range rows {
				nd := b.nodeOf[i]
				if nd < 0 {
					continue // row settled in a leaf
				}
				rowBins := b.data.Row(i)
				hs, hc := b.histSum[nd-first], b.histCnt[nd-first]
				g := grad[i]
				for _, c := range cols[lo:hi] {
					k := c*cfg.Bins + int(rowBins[c])
					hs[k] += g
					hc[k]++
				}
			}
		})
		// Choose the best split per node.
		type split struct {
			col   int
			thr   int
			valid bool
		}
		splits := make([]split, count)
		for n := 0; n < count; n++ {
			flat := first + int32(n)
			hs, hc := b.histSum[n], b.histCnt[n]
			// Node totals from the first sampled column.
			var totSum, totCnt float64
			c0 := cols[0]
			for bin := 0; bin < cfg.Bins; bin++ {
				totSum += hs[c0*cfg.Bins+bin]
				totCnt += hc[c0*cfg.Bins+bin]
			}
			if totCnt < float64(2*cfg.MinLeaf) {
				b.finalizeLeaf(&tree, flat, totSum, totCnt)
				continue
			}
			parentScore := totSum * totSum / (totCnt + cfg.Lambda)
			bestGain := 1e-12
			var best split
			for _, c := range cols {
				var lSum, lCnt float64
				for bin := 0; bin < cfg.Bins-1; bin++ {
					k := c*cfg.Bins + bin
					lSum += hs[k]
					lCnt += hc[k]
					rCnt := totCnt - lCnt
					if lCnt < float64(cfg.MinLeaf) || rCnt < float64(cfg.MinLeaf) {
						continue
					}
					rSum := totSum - lSum
					gain := lSum*lSum/(lCnt+cfg.Lambda) + rSum*rSum/(rCnt+cfg.Lambda) - parentScore
					if gain > bestGain {
						bestGain = gain
						best = split{col: c, thr: bin, valid: true}
					}
				}
			}
			if !best.valid {
				b.finalizeLeaf(&tree, flat, totSum, totCnt)
				continue
			}
			splits[n] = best
			tree.Nodes[flat].Col = int32(best.col)
			tree.Nodes[flat].Thr = uint8(best.thr)
		}
		// Route rows to children (or mark settled rows with -1).
		for _, i := range rows {
			nd := b.nodeOf[i]
			if nd < 0 {
				continue
			}
			local := nd - first
			sp := splits[local]
			if !sp.valid {
				b.nodeOf[i] = -1
				continue
			}
			if b.data.At(i, sp.col) <= uint8(sp.thr) {
				b.nodeOf[i] = 2*nd + 1
			} else {
				b.nodeOf[i] = 2*nd + 2
			}
		}
	}
	// Final level: everything still routed becomes a leaf with the mean
	// gradient of its rows.
	first := int32(1<<cfg.Depth) - 1
	count := 1 << cfg.Depth
	sums := make([]float64, count)
	cnts := make([]float64, count)
	for _, i := range rows {
		nd := b.nodeOf[i]
		if nd < 0 {
			continue
		}
		sums[nd-first] += grad[i]
		cnts[nd-first]++
	}
	for n := 0; n < count; n++ {
		b.finalizeLeaf(&tree, first+int32(n), sums[n], cnts[n])
	}
	return tree
}

func (b *treeBuilder) finalizeLeaf(tree *Tree, flat int32, sum, cnt float64) {
	tree.Nodes[flat].Col = -1
	if cnt > 0 {
		tree.Nodes[flat].Value = sum / (cnt + b.cfg.Lambda)
	}
}

// eval walks one tree over a pre-binned row: the training-side walk, and
// the oracle the raw-feature walks are tested against.
func (t *Tree) eval(bins []uint8) float64 {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Col < 0 {
			return n.Value
		}
		if bins[n.Col] <= n.Thr {
			i = 2*i + 1
		} else {
			i = 2*i + 2
		}
	}
}

// walk is eval over a raw feature row, each split's cut looked up on the
// way: the scoring fallback for trees the compiled predictor cannot take.
func (t *Tree) walk(d *feature.Discretizer, x []float64) float64 {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Col < 0 {
			return n.Value
		}
		if x[n.Col] >= cutOf(d, n.Col, n.Thr) {
			i = 2*i + 2
		} else {
			i = 2*i + 1
		}
	}
}

// Score returns the ensemble prediction for a raw feature vector; values
// approximate the fraud probability (RMSE regression toward 0/1 labels).
// It runs the compiled predictor over one row and allocates nothing.
func (mo *Model) Score(x []float64) float64 {
	if len(x) != mo.Features {
		panic(fmt.Sprintf("gbdt: input has %d features, model wants %d", len(x), mo.Features))
	}
	c := mo.predictor()
	if c == nil {
		return mo.walk(x)
	}
	var out [1]float64
	c.predict(out[:], x, len(x), mo.Base, 0, 1)
	return out[0]
}

// ScoreBatch implements model.BatchScorer through the compiled predictor:
// every tree's contiguous SoA block streams over blocks of raw feature
// rows — across a worker pool for large batches — with the depth-3
// traversal fully unrolled. Nothing is discretised and nothing allocated:
// the discretiser's cuts were folded into the splits at compile.
func (mo *Model) ScoreBatch(dst []float64, m *feature.Matrix) {
	if m.Cols != mo.Features {
		panic(fmt.Sprintf("gbdt: matrix has %d features, model wants %d", m.Cols, mo.Features))
	}
	if c := mo.predictor(); c != nil {
		c.predictAll(dst[:m.Rows], m.Data, m.Cols, mo.Base)
		return
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = mo.walk(m.Row(i))
	}
}

// predictor returns the compiled form, built on first use, or nil for a
// model whose trees are not complete arrays.
func (mo *Model) predictor() *compiled {
	mo.compileOnce.Do(func() { mo.compiledSoA = compile(mo) })
	return mo.compiledSoA
}

// walk is the fallback for such a model: the compiled walk's comparisons
// made over Tree.Nodes, in the same tree order.
func (mo *Model) walk(x []float64) float64 {
	s := mo.Base
	for t := range mo.TreesArr {
		s += mo.TreesArr[t].walk(mo.Disc, x)
	}
	return s
}

// NumFeatures implements model.Classifier.
func (mo *Model) NumFeatures() int { return mo.Features }

// NumTrees returns the number of boosted trees.
func (mo *Model) NumTrees() int { return len(mo.TreesArr) }
