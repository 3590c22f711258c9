package gbdt

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"titant/internal/feature"
)

// compiled is the inference form of a trained ensemble: every tree
// flattened into one contiguous structure-of-arrays block, padded to a
// perfect tree of the model's depth so traversal needs no leaf test, with
// each split's bin threshold replaced by the float cut it stands for, so
// the walk compares raw feature values and nothing is discretised.
//
// Layout per tree t (depth D, so 2^D-1 interior nodes and 2^D leaves):
//
//	cols[t*interior : (t+1)*interior]  split feature per heap-ordered node
//	cuts[t*interior : (t+1)*interior]  go right when x[col] >= cut
//	leaf[t*leaves   : (t+1)*leaves]    output per bottom-level leaf
//
// The trainer's split "go left when Bin(col, x) <= Thr" counts the cuts at
// or below x, so it goes right exactly when x >= Cuts[col][Thr] (cutOf); a
// NaN feature bins to 0 and fails every >=, so it goes left either way. A
// tree that stopped growing early (a leaf above the bottom level) is
// padded with dummy splits whose cut is NaN — never right — and its value
// replicated into the reachable bottom-level leaves, so every traversal
// runs exactly D comparisons and lands on a leaf holding the value
// Tree.eval returns over the binned row. Summation stays in tree order,
// which keeps scores bitwise identical to that walk.
type compiled struct {
	depth    int
	interior int // 2^depth - 1 split slots per tree
	leaves   int // 2^depth leaf slots per tree
	trees    int
	cols     []int32
	cuts     []float64
	leaf     []float64
}

// cutOf returns the raw-value form of the split "go left when
// Bin(col, x) <= thr": go right iff x >= cutOf. A threshold at or past the
// column's last bin sends every value left, which a NaN cut reproduces.
func cutOf(d *feature.Discretizer, col int32, thr uint8) float64 {
	if cuts := d.Cuts[col]; int(thr) < len(cuts) {
		return cuts[thr]
	}
	return math.NaN()
}

// parallelTreeRows is the work — rows × trees — at and above which
// predictAll fans row blocks out over a worker pool. The crossover tracks
// work, not rows: on two idle CPUs the goroutines, WaitGroup and closure
// pay for themselves from about 40k tree-rows (~200 µs serial) at 40 and
// at 400 trees alike (docs/perf/016-raw-feature-walk.md); the engine's
// 256-row batch over 40 trees is a quarter of that and stays on the
// caller's goroutine, allocation-free.
const parallelTreeRows = 1 << 16

// rowBlock is the number of rows scored per pass over the trees — the unit
// workers claim in parallel mode and the serial path's chunk. 32 rows of
// the 116-wide serving vector are 29 KB of float64: the chunk and its
// partial sums stay L1-resident while every tree streams over them once.
const rowBlock = 32

// compile flattens the model's trees. It returns nil when any tree is not
// the complete array newTreeBuilder produces or splits on a column the
// model does not have (e.g. a hand-built or corrupt model); callers fall
// back to the scalar walk.
func compile(mo *Model) *compiled {
	if mo.Depth < 1 || mo.Depth > 16 || mo.Disc == nil || len(mo.Disc.Cuts) != mo.Features {
		return nil
	}
	interior := 1<<mo.Depth - 1
	leaves := 1 << mo.Depth
	want := 2*leaves - 1
	for i := range mo.TreesArr {
		if len(mo.TreesArr[i].Nodes) != want {
			return nil
		}
		for _, n := range mo.TreesArr[i].Nodes {
			if int(n.Col) >= mo.Features {
				return nil
			}
		}
	}
	c := &compiled{
		depth:    mo.Depth,
		interior: interior,
		leaves:   leaves,
		trees:    len(mo.TreesArr),
		cols:     make([]int32, len(mo.TreesArr)*interior),
		cuts:     make([]float64, len(mo.TreesArr)*interior),
		leaf:     make([]float64, len(mo.TreesArr)*leaves),
	}
	for t := range mo.TreesArr {
		c.fill(mo.Disc, &mo.TreesArr[t], t, 0, 0, false)
	}
	return c
}

// fill copies node idx of tree t into the perfect-tree block, propagating
// an early leaf's value down to the bottom level behind dummy splits.
func (c *compiled) fill(d *feature.Discretizer, tr *Tree, t, idx int, forced float64, isForced bool) {
	if idx >= c.interior {
		v := forced
		if !isForced {
			v = tr.Nodes[idx].Value
		}
		c.leaf[t*c.leaves+idx-c.interior] = v
		return
	}
	n := &tr.Nodes[idx]
	at := t*c.interior + idx
	if isForced || n.Col < 0 {
		if !isForced {
			forced, isForced = n.Value, true
		}
		// Dummy split: x >= NaN never holds, so rows go left; the right
		// subtree is unreachable but filled for determinism.
		c.cols[at] = 0
		c.cuts[at] = math.NaN()
	} else {
		c.cols[at] = n.Col
		c.cuts[at] = cutOf(d, n.Col, n.Thr)
	}
	c.fill(d, tr, t, 2*idx+1, forced, isForced)
	c.fill(d, tr, t, 2*idx+2, forced, isForced)
}

// predict scores rows [lo, hi) of data (stride values per row) into dst,
// adding every tree's output to the base prediction in tree order.
func (c *compiled) predict(dst, data []float64, stride int, base float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i] = base
	}
	if c.depth == 3 {
		c.walkDepth3(dst, data, stride, lo, hi)
	} else {
		c.walkGeneric(dst, data, stride, lo, hi)
	}
}

// walkDepth3 is the unrolled traversal for the paper's depth-3 trees:
// three comparisons, no loop, no leaf test, and no branch — each
// comparison becomes a 0/1 that indexes the next node, so a fresh row's
// unpredictable path costs no mispredictions. Trees run in the outer loop
// and the block's rows stream under each one; every row still accumulates
// trees in ascending order, so the sum stays bitwise equal to the scalar
// walk. Heap indices after branches b0 b1 b2 are 1+b0, 3+2*b0+b1 and leaf
// slot 4*b0+2*b1+b2. compile checked every col < stride, so off+col stays
// inside row i.
func (c *compiled) walkDepth3(dst, data []float64, stride, lo, hi int) {
	for t := 0; t < c.trees; t++ {
		cols := (*[7]int32)(c.cols[t*7:])
		cuts := (*[7]float64)(c.cuts[t*7:])
		leaf := (*[8]float64)(c.leaf[t*8:])
		c0, h0 := int(cols[0]), cuts[0]
		off := lo * stride
		for i := lo; i < hi; i++ {
			b0 := 0
			if data[off+c0] >= h0 {
				b0 = 1
			}
			k := 1 + b0
			b1 := 0
			if data[off+int(cols[k])] >= cuts[k] {
				b1 = 1
			}
			p := 2*b0 + b1
			k = 3 + p
			b2 := 0
			if data[off+int(cols[k])] >= cuts[k] {
				b2 = 1
			}
			dst[i] += leaf[(2*p+b2)&7]
			off += stride
		}
	}
}

// walkGeneric runs depth comparisons per tree for non-default depths, with
// the same tree-outer loop order as walkDepth3.
func (c *compiled) walkGeneric(dst, data []float64, stride, lo, hi int) {
	for t := 0; t < c.trees; t++ {
		nb := t * c.interior
		cols := c.cols[nb : nb+c.interior : nb+c.interior]
		cuts := c.cuts[nb : nb+c.interior : nb+c.interior]
		lb := t * c.leaves
		leaf := c.leaf[lb : lb+c.leaves : lb+c.leaves]
		off := lo * stride
		for i := lo; i < hi; i++ {
			idx := 0
			for d := 0; d < c.depth; d++ {
				b := 0
				if data[off+int(cols[idx])] >= cuts[idx] {
					b = 1
				}
				idx = 2*idx + 1 + b
			}
			dst[i] += leaf[idx-c.interior]
			off += stride
		}
	}
}

// predictAll scores len(dst) rows of data into dst, fanning row blocks
// out over a worker pool when the batch is enough work to pay for it.
// Rows are disjoint across workers and each row sums its trees in order,
// so the result is deterministic and bitwise equal to the scalar path
// regardless of scheduling.
func (c *compiled) predictAll(dst, data []float64, stride int, base float64) {
	rows := len(dst)
	workers := runtime.GOMAXPROCS(0)
	if rows*c.trees < parallelTreeRows || workers < 2 {
		for lo := 0; lo < rows; lo += rowBlock {
			hi := lo + rowBlock
			if hi > rows {
				hi = rows
			}
			c.predict(dst, data, stride, base, lo, hi)
		}
		return
	}
	if max := (rows + rowBlock - 1) / rowBlock; workers > max {
		workers = max
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(rowBlock)) - rowBlock
				if lo >= rows {
					return
				}
				hi := lo + rowBlock
				if hi > rows {
					hi = rows
				}
				c.predict(dst, data, stride, base, lo, hi)
			}
		}()
	}
	wg.Wait()
}
