// Package ruletree implements the paper's two rule-based detectors:
// ID3 (Quinlan 1986) and a C5.0-style tree (Quinlan's C4.5 successor).
//
// Both operate on discretised features ("rule-based ID3 and C5.0 cannot
// support continuous values well, we discretize the data into different
// bins" - Section 5.1). ID3 performs multiway splits chosen by information
// gain and does not prune; C5.0 performs binary threshold splits on the
// ordinal bins, chooses them by gain ratio, and applies C4.5-style
// pessimistic pruning. Those mechanism differences are exactly what the
// paper credits for C5.0 beating ID3 by ~7% on average.
package ruletree

import (
	"encoding/gob"
	"fmt"
	"math"

	"titant/internal/feature"
	"titant/internal/model"
)

func init() { gob.Register(&Tree{}) }

// Algorithm selects the tree variant.
type Algorithm int

// Algorithm values.
const (
	ID3 Algorithm = iota
	C50
)

func (a Algorithm) String() string {
	switch a {
	case ID3:
		return "ID3"
	case C50:
		return "C5.0"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Config holds decision-tree hyperparameters.
type Config struct {
	Algorithm Algorithm
	Bins      int     // discretisation buckets
	MaxDepth  int     // maximum tree depth
	MinLeaf   int     // minimum samples per leaf
	PruneZ    float64 // C5.0 pessimistic-pruning z (0 disables; 0.6745 ~ CF 25%)
}

// DefaultID3 returns ID3 defaults: coarse bins (multiway splits explode
// otherwise), no pruning.
func DefaultID3() Config {
	return Config{Algorithm: ID3, Bins: 12, MaxDepth: 6, MinLeaf: 25}
}

// DefaultC50 returns C5.0 defaults: finer bins are safe with binary splits,
// gain-ratio criterion, pessimistic pruning at CF=25%.
func DefaultC50() Config {
	return Config{Algorithm: C50, Bins: 64, MaxDepth: 12, MinLeaf: 8, PruneZ: 0.6745}
}

// Node is one tree node. Exported for gob.
type Node struct {
	Leaf     bool
	Prob     float64 // Laplace-smoothed fraud probability (leaf)
	N        int     // training rows at this node
	Pos      int     // fraud rows at this node
	Col      int     // split feature
	Thr      uint8   // C5.0: go left when bin <= Thr
	Children []*Node // ID3: child per bin value
	Left     *Node   // C5.0 binary split
	Right    *Node
}

// Tree is a trained decision tree with its embedded discretiser.
type Tree struct {
	Algo     Algorithm
	Root     *Node
	Disc     *feature.Discretizer
	Features int
}

var _ model.Classifier = (*Tree)(nil)

// Train fits a tree on raw features and boolean labels.
func Train(m *feature.Matrix, labels []bool, cfg Config) *Tree {
	if m.Rows != len(labels) {
		panic(fmt.Sprintf("ruletree: %d rows vs %d labels", m.Rows, len(labels)))
	}
	if cfg.Bins < 2 || cfg.MaxDepth < 1 || cfg.MinLeaf < 1 {
		panic(fmt.Sprintf("ruletree: bad config %+v", cfg))
	}
	disc := feature.FitDiscretizer(m, cfg.Bins)
	binned := disc.Transform(m)
	t := &Tree{Algo: cfg.Algorithm, Disc: disc, Features: m.Cols}
	idx := make([]int, m.Rows)
	for i := range idx {
		idx[i] = i
	}
	b := &builder{cfg: cfg, data: binned, labels: labels}
	t.Root = b.build(idx, 0)
	if cfg.Algorithm == C50 && cfg.PruneZ > 0 {
		prune(t.Root, cfg.PruneZ)
	}
	return t
}

type builder struct {
	cfg    Config
	data   *feature.Binned
	labels []bool
}

func (b *builder) leaf(idx []int) *Node {
	pos := 0
	for _, i := range idx {
		if b.labels[i] {
			pos++
		}
	}
	return &Node{
		Leaf: true,
		N:    len(idx),
		Pos:  pos,
		Prob: (float64(pos) + 1) / (float64(len(idx)) + 2),
	}
}

func entropy(pos, n int) float64 {
	if n == 0 || pos == 0 || pos == n {
		return 0
	}
	p := float64(pos) / float64(n)
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

func (b *builder) build(idx []int, depth int) *Node {
	node := b.leaf(idx)
	if depth >= b.cfg.MaxDepth || len(idx) < 2*b.cfg.MinLeaf || node.Pos == 0 || node.Pos == node.N {
		return node
	}
	switch b.cfg.Algorithm {
	case ID3:
		return b.buildID3(idx, depth, node)
	case C50:
		return b.buildC50(idx, depth, node)
	default:
		panic("ruletree: unknown algorithm")
	}
}

// buildID3 chooses the feature with maximum information gain and splits
// multiway, one child per bin value.
func (b *builder) buildID3(idx []int, depth int, asLeaf *Node) *Node {
	base := entropy(asLeaf.Pos, asLeaf.N)
	bestCol, bestGain := -1, 1e-9
	var counts [256][2]int
	for col := 0; col < b.data.Cols; col++ {
		nb := b.data.NumBins[col]
		if nb < 2 {
			continue
		}
		for v := 0; v < nb; v++ {
			counts[v][0], counts[v][1] = 0, 0
		}
		for _, i := range idx {
			v := b.data.At(i, col)
			if b.labels[i] {
				counts[v][1]++
			} else {
				counts[v][0]++
			}
		}
		cond := 0.0
		for v := 0; v < nb; v++ {
			n := counts[v][0] + counts[v][1]
			if n == 0 {
				continue
			}
			cond += float64(n) / float64(len(idx)) * entropy(counts[v][1], n)
		}
		if gain := base - cond; gain > bestGain {
			bestGain, bestCol = gain, col
		}
	}
	if bestCol < 0 {
		return asLeaf
	}
	nb := b.data.NumBins[bestCol]
	parts := make([][]int, nb)
	for _, i := range idx {
		v := b.data.At(i, bestCol)
		parts[v] = append(parts[v], i)
	}
	node := &Node{Col: bestCol, N: asLeaf.N, Pos: asLeaf.Pos, Children: make([]*Node, nb)}
	nonEmpty := 0
	for v, part := range parts {
		if len(part) == 0 {
			// Empty branch inherits the parent's distribution.
			node.Children[v] = asLeaf
			continue
		}
		nonEmpty++
		if len(part) < b.cfg.MinLeaf {
			node.Children[v] = b.leaf(part)
		} else {
			node.Children[v] = b.build(part, depth+1)
		}
	}
	if nonEmpty < 2 {
		return asLeaf
	}
	return node
}

// buildC50 chooses a binary threshold split by gain ratio, restricted (as
// in Quinlan's C4.5) to candidates whose raw information gain is at least
// the average positive gain - without that constraint gain ratio favours
// degenerate near-empty splits whose split info approaches zero.
func (b *builder) buildC50(idx []int, depth int, asLeaf *Node) *Node {
	base := entropy(asLeaf.Pos, asLeaf.N)
	total := len(idx)
	type cand struct {
		col, thr    int
		gain, ratio float64
	}
	var cands []cand
	var gainSum float64
	var cum [256][2]int
	for col := 0; col < b.data.Cols; col++ {
		nb := b.data.NumBins[col]
		if nb < 2 {
			continue
		}
		for v := 0; v < nb; v++ {
			cum[v][0], cum[v][1] = 0, 0
		}
		for _, i := range idx {
			v := b.data.At(i, col)
			if b.labels[i] {
				cum[v][1]++
			} else {
				cum[v][0]++
			}
		}
		// Prefix sums turn threshold evaluation into O(bins); keep the
		// best candidate per column.
		leftN, leftPos := 0, 0
		best := cand{col: -1}
		for thr := 0; thr < nb-1; thr++ {
			leftN += cum[thr][0] + cum[thr][1]
			leftPos += cum[thr][1]
			rightN := total - leftN
			rightPos := asLeaf.Pos - leftPos
			if leftN < b.cfg.MinLeaf || rightN < b.cfg.MinLeaf {
				continue
			}
			cond := float64(leftN)/float64(total)*entropy(leftPos, leftN) +
				float64(rightN)/float64(total)*entropy(rightPos, rightN)
			gain := base - cond
			if gain <= 1e-12 {
				continue
			}
			pl := float64(leftN) / float64(total)
			si := -pl*math.Log2(pl) - (1-pl)*math.Log2(1-pl)
			if si < 1e-9 {
				continue
			}
			if ratio := gain / si; best.col < 0 || ratio > best.ratio {
				best = cand{col: col, thr: thr, gain: gain, ratio: ratio}
			}
		}
		if best.col >= 0 {
			cands = append(cands, best)
			gainSum += best.gain
		}
	}
	if len(cands) == 0 {
		return asLeaf
	}
	avgGain := gainSum / float64(len(cands))
	bestCol, bestThr, bestRatio := -1, 0, -1.0
	for _, c := range cands {
		if c.gain+1e-12 >= 0.5*avgGain && c.ratio > bestRatio {
			bestCol, bestThr, bestRatio = c.col, c.thr, c.ratio
		}
	}
	if bestCol < 0 {
		return asLeaf
	}
	var left, right []int
	for _, i := range idx {
		if int(b.data.At(i, bestCol)) <= bestThr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return &Node{
		Col: bestCol, Thr: uint8(bestThr), N: asLeaf.N, Pos: asLeaf.Pos,
		Left:  b.build(left, depth+1),
		Right: b.build(right, depth+1),
	}
}

// prune applies C4.5 pessimistic pruning bottom-up: a subtree is replaced
// by a leaf when the leaf's upper-confidence error bound does not exceed
// the subtree's.
func prune(n *Node, z float64) float64 {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return ucbError(n.N-maxInt(n.Pos, n.N-n.Pos), n.N, z) * float64(n.N)
	}
	var subtreeErr float64
	if n.Children != nil {
		for _, c := range n.Children {
			if c != n { // empty branches alias the parent's leaf snapshot
				subtreeErr += prune(c, z)
			}
		}
	} else {
		subtreeErr = prune(n.Left, z) + prune(n.Right, z)
	}
	leafMis := n.N - maxInt(n.Pos, n.N-n.Pos)
	leafErr := ucbError(leafMis, n.N, z) * float64(n.N)
	if leafErr <= subtreeErr+1e-12 {
		// Collapse to a leaf.
		n.Leaf = true
		n.Children, n.Left, n.Right = nil, nil, nil
		n.Prob = (float64(n.Pos) + 1) / (float64(n.N) + 2)
		return leafErr
	}
	return subtreeErr
}

// ucbError is the upper confidence bound of the true error rate given mis
// errors in n trials (Wilson-style, as in C4.5).
func ucbError(mis, n int, z float64) float64 {
	if n == 0 {
		return 1
	}
	f := float64(mis) / float64(n)
	nf := float64(n)
	z2 := z * z
	num := f + z2/(2*nf) + z*math.Sqrt(f*(1-f)/nf+z2/(4*nf*nf))
	return num / (1 + z2/nf)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Score returns the leaf fraud probability for a raw feature vector,
// binning only the columns the walk visits. The tree has no batch form:
// discretising a whole row to read a handful of its columns costs more
// than the walk, so model.ScoreMatrixInto's row loop calls Score.
func (t *Tree) Score(x []float64) float64 {
	if len(x) != t.Features {
		panic(fmt.Sprintf("ruletree: input has %d features, model wants %d", len(x), t.Features))
	}
	n := t.Root
	for !n.Leaf {
		bin := t.Disc.Bin(n.Col, x[n.Col])
		if n.Children != nil {
			if bin >= len(n.Children) {
				bin = len(n.Children) - 1
			}
			n = n.Children[bin]
		} else if bin <= int(n.Thr) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Prob
}

// NumFeatures implements model.Classifier.
func (t *Tree) NumFeatures() int { return t.Features }

// Depth returns the maximum depth of the tree (leaves at depth 0 for a
// stump).
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n == nil || n.Leaf {
		return 0
	}
	d := 0
	if n.Children != nil {
		for _, c := range n.Children {
			if dc := depth(c); dc > d {
				d = dc
			}
		}
	} else {
		if dl := depth(n.Left); dl > d {
			d = dl
		}
		if dr := depth(n.Right); dr > d {
			d = dr
		}
	}
	return d + 1
}

// NumLeaves counts the leaves (rules) in the tree.
func (t *Tree) NumLeaves() int { return leaves(t.Root) }

func leaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	total := 0
	if n.Children != nil {
		for _, c := range n.Children {
			total += leaves(c)
		}
	} else {
		total = leaves(n.Left) + leaves(n.Right)
	}
	return total
}
