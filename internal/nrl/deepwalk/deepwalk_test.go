package deepwalk

import (
	"fmt"
	"runtime"
	"testing"

	"titant/internal/graph"
	"titant/internal/rng"
	"titant/internal/txn"
)

// twoCliques builds two dense communities joined by a single bridge edge.
func twoCliques(size int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < size; i++ {
		for j := 0; j < size; j++ {
			if i != j {
				b.AddTransfer(txn.UserID(i), txn.UserID(j), false)
				b.AddTransfer(txn.UserID(size+i), txn.UserID(size+j), false)
			}
		}
	}
	b.AddTransfer(0, txn.UserID(size), false)
	return b.Build()
}

func TestWalksAreValidPaths(t *testing.T) {
	g := twoCliques(6)
	count := 0
	Walks(g, 10, 3, 42, func(walk []graph.NodeID) {
		count++
		if len(walk) == 0 || len(walk) > 10 {
			t.Fatalf("walk length %d", len(walk))
		}
		for i := 1; i < len(walk); i++ {
			a, b := walk[i-1], walk[i]
			if !g.HasEdge(a, b) && !g.HasEdge(b, a) {
				t.Fatalf("walk step %d: no edge between %d and %d", i, a, b)
			}
		}
	})
	if want := g.NumNodes() * 3; count != want {
		t.Fatalf("got %d walks, want %d", count, want)
	}
}

func TestWalksCoverAllStarts(t *testing.T) {
	g := twoCliques(4)
	starts := make(map[graph.NodeID]int)
	Walks(g, 5, 2, 1, func(walk []graph.NodeID) {
		starts[walk[0]]++
	})
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if starts[v] != 2 {
			t.Fatalf("node %d started %d walks, want 2", v, starts[v])
		}
	}
}

func TestWalkIsolatedNode(t *testing.T) {
	b := graph.NewBuilder()
	b.AddTransfer(1, 2, false)
	b.AddTransfer(3, 4, false)
	g := b.Build()
	// No panic and single-node walks are allowed for degree-0 continuation.
	Walks(g, 5, 1, 1, func(walk []graph.NodeID) {})
}

func TestCommunityStructureCaptured(t *testing.T) {
	// DeepWalk must embed same-community nodes closer than cross-community
	// nodes - the property that makes fraud-ring clusters detectable.
	g := twoCliques(8)
	cfg := BenchConfig()
	cfg.Dim = 16
	cfg.WalksPerNode = 20
	emb := Train(g, cfg)
	if emb.Len() != g.NumNodes() {
		t.Fatalf("embedded %d of %d nodes", emb.Len(), g.NumNodes())
	}
	var within, across float64
	nw, na := 0, 0
	for i := 2; i < 8; i++ {
		within += emb.Cosine(txn.UserID(1), txn.UserID(i))
		nw++
	}
	for i := 8; i < 16; i++ {
		across += emb.Cosine(txn.UserID(1), txn.UserID(i))
		na++
	}
	within /= float64(nw)
	across /= float64(na)
	if within <= across {
		t.Errorf("within-community cosine %.3f <= across %.3f", within, across)
	}
}

func TestDeterminism(t *testing.T) {
	g := twoCliques(5)
	cfg := BenchConfig()
	cfg.WalksPerNode = 5
	a := Train(g, cfg)
	b := Train(g, cfg)
	for _, u := range a.Users() {
		va, vb := a.Lookup(u), b.Lookup(u)
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("user %d dim %d differs", u, i)
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder().Build()
	emb := Train(g, BenchConfig())
	if emb.Len() != 0 {
		t.Fatal("empty graph produced embeddings")
	}
}

func TestNegativeTable(t *testing.T) {
	freq := []float64{100, 1, 1, 1}
	nt := NewNegativeTable(freq, 1000)
	r := rng.New(3)
	counts := make([]int, 4)
	for i := 0; i < 10000; i++ {
		counts[nt.Sample(r)]++
	}
	// Node 0 dominates but sublinearly (unigram^0.75).
	if counts[0] <= counts[1] {
		t.Errorf("high-frequency node not preferred: %v", counts)
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("node %d never sampled", i)
		}
	}
}

func TestSGNSUpdateMovesVectorsTogether(t *testing.T) {
	r := rng.New(5)
	s := NewSGNS(4, 8, r)
	// Repeated positive updates must raise sigma(in . out) for the pair.
	dot := func() float64 {
		var d float64
		for i := 0; i < 8; i++ {
			d += float64(s.Syn0[0][i]) * float64(s.Syn1[1][i])
		}
		return d
	}
	before := dot()
	for i := 0; i < 200; i++ {
		s.Update(0, 1, []graph.NodeID{2, 3}, 0.1)
	}
	if after := dot(); after <= before {
		t.Errorf("positive-pair dot did not increase: %v -> %v", before, after)
	}
}

func TestSGNSSkipsSelfNegative(t *testing.T) {
	r := rng.New(6)
	s := NewSGNS(2, 4, r)
	// Negative equal to the context must be skipped - update must still
	// behave like a pure positive update (direction of dot increases).
	var before float64
	for i := 0; i < 4; i++ {
		before += float64(s.Syn0[0][i]) * float64(s.Syn1[1][i])
	}
	s.Update(0, 1, []graph.NodeID{1, 1}, 0.5)
	var after float64
	for i := 0; i < 4; i++ {
		after += float64(s.Syn0[0][i]) * float64(s.Syn1[1][i])
	}
	if after < before {
		t.Errorf("dot decreased despite only-positive update: %v -> %v", before, after)
	}
}

// TestBadConfigPanics checks that Train rejects a bad config on the
// caller's goroutine, before the sampler starts: a panic there would kill
// the process instead of reaching the caller's recover.
func TestBadConfigPanics(t *testing.T) {
	g := twoCliques(3)
	for name, mutate := range map[string]func(*Config){
		"dim":          func(c *Config) { c.Dim = 0 },
		"window":       func(c *Config) { c.Window = 0 },
		"negatives":    func(c *Config) { c.Negatives = -1 },
		"walkLength":   func(c *Config) { c.WalkLength = 0 },
		"walksPerNode": func(c *Config) { c.WalksPerNode = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := BenchConfig()
			mutate(&cfg)
			before := runtime.NumGoroutine()
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Fatalf("%d goroutines after the panic, %d before", n, before)
				}
			}()
			Train(g, cfg)
		})
	}
}

func TestBadWalkParamsPanics(t *testing.T) {
	g := twoCliques(3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Walks(g, 0, 1, 1, func([]graph.NodeID) {})
}

func BenchmarkTrainSmall(b *testing.B) {
	g := twoCliques(20)
	cfg := BenchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(g, cfg)
	}
}

// BenchmarkSGNSUpdate times one skip-gram update at the paper's dimension
// with BenchConfig's 4 and DefaultConfig's 5 negatives, all targets
// distinct or with one negative drawn twice.
func BenchmarkSGNSUpdate(b *testing.B) {
	const nodes = 1024
	for _, negs := range []int{4, 5} {
		for _, repeat := range []bool{false, true} {
			b.Run(fmt.Sprintf("neg=%d/repeat=%v", negs, repeat), func(b *testing.B) {
				s := NewSGNS(nodes, 32, rng.New(1))
				buf := make([]graph.NodeID, negs)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := range buf {
						buf[k] = graph.NodeID((i*7 + k*131 + 3) % nodes)
					}
					if repeat {
						buf[negs-1] = buf[0]
					}
					s.Update(graph.NodeID(i%nodes), graph.NodeID((i*13+1)%nodes), buf, 0.001)
				}
			})
		}
	}
}
