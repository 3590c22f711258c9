// Package deepwalk implements DeepWalk (Perozzi et al., KDD 2014), the
// unsupervised network-representation-learning method TitAnt selects "for
// its efficiency, effectiveness and simplicity" (Section 3.2).
//
// Random walks over the (undirected view of the) transaction network turn
// topology into linear node sequences; Skip-gram with negative sampling
// (word2vec, Mikolov et al. 2013) then embeds nodes so that walk
// co-occurrence implies vector similarity. The paper's production settings
// are walk length 50, 100 walks per node ("number of sampling"), and
// dimension 32.
package deepwalk

import (
	"fmt"
	"math"
	"slices"

	"titant/internal/graph"
	"titant/internal/nrl"
	"titant/internal/rng"
)

// Config holds DeepWalk hyperparameters.
type Config struct {
	Dim          int     // embedding dimension (paper: 32)
	WalkLength   int     // nodes per walk (paper: 50)
	WalksPerNode int     // walks started at each node (paper: 100)
	Window       int     // skip-gram context window
	Negatives    int     // negative samples per positive pair
	LearningRate float64 // initial SGD step, decays linearly
	MinLR        float64 // learning-rate floor
	Seed         uint64
}

// DefaultConfig returns the paper's NRL settings with standard word2vec
// training constants.
func DefaultConfig() Config {
	return Config{
		Dim: 32, WalkLength: 50, WalksPerNode: 100,
		Window: 5, Negatives: 5,
		LearningRate: 0.025, MinLR: 0.0001, Seed: 1,
	}
}

// BenchConfig returns laptop-scale settings: the hyperparameters that shape
// embedding quality (dim, window, negatives) match the paper; the sampling
// effort is reduced. Table 2 sweeps WalksPerNode explicitly.
func BenchConfig() Config {
	c := DefaultConfig()
	c.WalkLength = 20
	c.WalksPerNode = 10
	c.Window = 3
	c.Negatives = 4
	return c
}

// Walks streams random walks over the undirected view of g: each node
// starts cfg.WalksPerNode walks of cfg.WalkLength steps; each step moves to
// a uniformly random in- or out-neighbour (degree-proportional transition,
// as in the original DeepWalk). fn receives each walk; the slice is reused
// across calls.
func Walks(g *graph.Graph, walkLength, walksPerNode int, seed uint64, fn func(walk []graph.NodeID)) {
	if walkLength < 1 || walksPerNode < 1 {
		panic(fmt.Sprintf("deepwalk: bad walk parameters length=%d per-node=%d", walkLength, walksPerNode))
	}
	r := rng.New(seed)
	walk := make([]graph.NodeID, 0, walkLength)
	for rep := 0; rep < walksPerNode; rep++ {
		// A fresh permutation per repetition, as in the original paper.
		for _, start := range r.Perm(g.NumNodes()) {
			walk = Walk(g, graph.NodeID(start), walk, r)
			fn(walk)
		}
	}
}

// Walk refills walk with one random walk from start of up to cap(walk)
// nodes (at least one), ending early at a node without neighbours.
func Walk(g *graph.Graph, start graph.NodeID, walk []graph.NodeID, r *rng.RNG) []graph.NodeID {
	walk = append(walk[:0], start)
	for cur := start; len(walk) < cap(walk); walk = append(walk, cur) {
		out, in := g.OutNeighbors(cur), g.InNeighbors(cur)
		k := len(out) + len(in)
		if k == 0 {
			break
		}
		if k = r.Intn(k); k < len(out) {
			cur = out[k]
		} else {
			cur = in[k-len(out)]
		}
	}
	return walk
}

// SGNS is the skip-gram-with-negative-sampling trainer state. It is
// exported so the parameter-server reimplementation (internal/ps) can run
// the identical math with distributed parameter storage.
type SGNS struct {
	Dim  int
	Syn0 [][]float32 // input (node) vectors - these become the embeddings
	Syn1 [][]float32 // output (context) vectors
}

// NewSGNS allocates trainer state for n nodes, with small random init on
// the input vectors (as in word2vec).
func NewSGNS(n, dim int, r *rng.RNG) *SGNS {
	s := &SGNS{Dim: dim, Syn0: make([][]float32, n), Syn1: make([][]float32, n)}
	for i := 0; i < n; i++ {
		v0 := make([]float32, dim)
		for j := range v0 {
			v0[j] = (float32(r.Float64()) - 0.5) / float32(dim)
		}
		s.Syn0[i] = v0
		s.Syn1[i] = make([]float32, dim)
	}
	return s
}

const (
	group     = 6    // targets whose dot products share one pass
	stackDim  = 128  // largest dimension whose update sum is on the stack
	pairBlock = 4096 // skip-gram pairs the sampler hands over at once
)

// Update applies one positive pair (center, context) plus the given
// negative samples, with learning rate lr. It returns the summed absolute
// update magnitude (useful for convergence diagnostics).
//
// The targets are the context (label 1), then each negative other than
// the context (label 0), in order. A target's step reads the center's
// vector, which changes only at the end, and writes only its own Syn1
// row; so a run of distinct targets has independent dot products, taken
// in one interleaved pass, before the sigmoids and axpys are applied
// target by target. A repeated target starts a new run, as it must read
// its row after the earlier step. The bits are those of one target at a
// time.
func (s *SGNS) Update(center, context graph.NodeID, negatives []graph.NodeID, lr float32) float32 {
	in := s.Syn0[center]
	var buf [stackDim]float32
	work := buf[:min(len(in), stackDim)]
	if len(in) > stackDim {
		work = make([]float32, len(in))
	}
	var run [group]graph.NodeID
	var total float32
	label := float32(1)
	for next := -1; next < len(negatives); {
		n := 0
		for ; next < len(negatives) && n < group; next++ {
			target := context
			if next >= 0 {
				if target = negatives[next]; target == context {
					continue
				}
			}
			if slices.Contains(run[:n], target) {
				break
			}
			run[n] = target
			n++
		}
		if n == 0 {
			break
		}
		dots := s.dots(in, run[:n])
		var gs [group]float32
		for k := range n {
			gs[k] = (label - float32(sigmoid(dots[k]))) * lr
			label = 0
		}
		for k, target := range run[:n] {
			out, g := s.Syn1[target][:len(in)], gs[k]
			for i := range in {
				work[i] += g * out[i]
				out[i] += g * in[i]
			}
			total += max(g, -g)
		}
	}
	for i := range in {
		in[i] += work[i]
	}
	return total
}

// dots returns in's dot products with the Syn1 rows of run, each summed
// in float64 in index order; slots past len(run) repeat its last row.
func (s *SGNS) dots(in []float32, run []graph.NodeID) [group]float64 {
	row := func(k int) []float32 { return s.Syn1[run[min(k, len(run)-1)]][:len(in)] }
	o0, o1, o2, o3, o4, o5 := row(0), row(1), row(2), row(3), row(4), row(5)
	var d0, d1, d2, d3, d4, d5 float64
	for i, x := range in {
		v := float64(x)
		d0 += v * float64(o0[i])
		d1 += v * float64(o1[i])
		d2 += v * float64(o2[i])
		d3 += v * float64(o3[i])
		d4 += v * float64(o4[i])
		d5 += v * float64(o5[i])
	}
	return [group]float64{d0, d1, d2, d3, d4, d5}
}

func sigmoid(z float64) float64 {
	if z > 8 {
		return 1
	}
	if z < -8 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

// NegativeTable is the unigram^0.75 sampling table of word2vec.
type NegativeTable struct {
	table []graph.NodeID
}

// NewNegativeTable builds the table from node frequencies (walk visit
// counts or degrees). size bounds the table length.
func NewNegativeTable(freq []float64, size int) *NegativeTable {
	if size < 1 {
		size = 1 << 16
	}
	var total float64
	pow := make([]float64, len(freq))
	for i, f := range freq {
		p := math.Pow(f+1, 0.75)
		pow[i] = p
		total += p
	}
	t := &NegativeTable{table: make([]graph.NodeID, 0, size)}
	for i, p := range pow {
		n := int(p / total * float64(size))
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			t.table = append(t.table, graph.NodeID(i))
		}
	}
	return t
}

// Sample draws one negative node.
func (t *NegativeTable) Sample(r *rng.RNG) graph.NodeID {
	return t.table[r.Intn(len(t.table))]
}

// pairs is one block of sampled pairs: pair i trains center[i] against
// context[i] and its k negatives negs[i*k:(i+1)*k] at rate lr[i].
type pairs struct {
	center, context, negs []graph.NodeID
	lr                    []float32
}

// Train runs DeepWalk on g and returns the learned user embeddings.
//
// Walks and the window and negative draws never read the vectors, so a
// sampler goroutine draws the pairs into blocks while the caller trains
// on them in the order drawn: the bits of sampling and training in one
// loop.
func Train(g *graph.Graph, cfg Config) *nrl.Embeddings {
	if cfg.Dim < 1 || cfg.Window < 1 || cfg.Negatives < 0 || cfg.WalkLength < 1 || cfg.WalksPerNode < 1 {
		panic(fmt.Sprintf("deepwalk: bad config %+v", cfg))
	}
	n := g.NumNodes()
	out := nrl.NewEmbeddings(cfg.Dim)
	if n == 0 {
		return out
	}
	r := rng.New(cfg.Seed)
	s := NewSGNS(n, cfg.Dim, r.Split(1))

	// Degree-based negative table (degree approximates walk visit counts).
	freq := make([]float64, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		freq[v] = float64(g.Degree(v))
	}
	neg := NewNegativeTable(freq, 1<<17)

	// Three blocks circulate: one filling, one training, one queued. The
	// caller returns only once the sampler has closed full; an update of
	// pairs drawn from g cannot panic and leave the sampler blocked.
	full, free := make(chan *pairs, 3), make(chan *pairs, 3)
	for range 3 {
		free <- &pairs{}
	}
	go func() {
		defer close(full)
		totalWalks := n * cfg.WalksPerNode
		walkIdx := 0
		trainRNG := r.Split(2)
		b := <-free
		Walks(g, cfg.WalkLength, cfg.WalksPerNode, cfg.Seed+7, func(walk []graph.NodeID) {
			// Linear learning-rate decay over all walks.
			progress := float64(walkIdx) / float64(totalWalks)
			lr := float32(max(cfg.LearningRate*(1-progress), cfg.MinLR))
			walkIdx++
			for i, center := range walk {
				// Dynamic window, as in word2vec: uniform in [1, Window].
				w := 1 + trainRNG.Intn(cfg.Window)
				for j := max(i-w, 0); j <= min(i+w, len(walk)-1); j++ {
					if j == i || walk[j] == center {
						continue
					}
					for range cfg.Negatives {
						b.negs = append(b.negs, neg.Sample(trainRNG))
					}
					b.center, b.context, b.lr = append(b.center, center), append(b.context, walk[j]), append(b.lr, lr)
					if len(b.center) == pairBlock {
						full <- b
						b = <-free
					}
				}
			}
		})
		full <- b
	}()
	k := cfg.Negatives
	for b := range full {
		for i := range b.center {
			s.Update(b.center[i], b.context[i], b.negs[i*k:(i+1)*k], b.lr[i])
		}
		b.center, b.context, b.negs, b.lr = b.center[:0], b.context[:0], b.negs[:0], b.lr[:0]
		free <- b
	}

	for v := graph.NodeID(0); int(v) < n; v++ {
		out.Set(g.User(v), s.Syn0[v])
	}
	return out
}
