package ps

import (
	"math"
	"testing"

	"titant/internal/feature"
	"titant/internal/graph"
	"titant/internal/metrics"
	"titant/internal/model"
	"titant/internal/model/gbdt"
	"titant/internal/nrl"
	"titant/internal/rng"
	"titant/internal/txn"
)

// mustScores is a test shim over the error-returning model.ScoreMatrix.
func mustScores(c model.Classifier, m *feature.Matrix) []float64 {
	s, err := model.ScoreMatrix(c, m)
	if err != nil {
		panic(err)
	}
	return s
}

func ring(n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddTransfer(txn.UserID(i), txn.UserID((i+1)%n), false)
	}
	return b.Build()
}

func TestClusterSplit(t *testing.T) {
	c := NewCluster(40, DefaultCostModel())
	if c.Servers != 20 || c.Workers != 20 {
		t.Fatalf("split = %d/%d", c.Servers, c.Workers)
	}
	c = NewCluster(5, DefaultCostModel())
	if c.Servers != 2 || c.Workers != 3 {
		t.Fatalf("split = %d/%d", c.Servers, c.Workers)
	}
}

func TestClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewCluster(1, DefaultCostModel())
}

func TestShardCoversAll(t *testing.T) {
	c := NewCluster(10, DefaultCostModel())
	shards := c.Shard(103)
	covered := 0
	last := 0
	for _, s := range shards {
		if s[0] != last {
			t.Fatalf("gap at %d", s[0])
		}
		covered += s[1] - s[0]
		last = s[1]
	}
	if covered != 103 || last != 103 {
		t.Fatalf("covered %d", covered)
	}
}

func TestAccountRound(t *testing.T) {
	c := NewCluster(4, CostModel{ComputeRate: 1e9, Bandwidth: 1e8, RPCLatency: 0.001, MsgOverhead: 0.0001})
	c.AccountRound(RoundCost{MaxWorkerOps: 1e9, TotalBytes: 2e8, ServerOps: 0, MsgsPerServer: 10, RPCRounds: 1})
	// 1s compute + 0.001 latency + (2e8/2)/1e8=1s + 10*0.0001 = 2.002s
	got := c.SimElapsed().Seconds()
	if got < 2.0 || got > 2.01 {
		t.Fatalf("sim = %v", got)
	}
	rounds, bytes, msgs := c.Stats()
	if rounds != 1 || bytes != 2e8 || msgs != 20 {
		t.Fatalf("stats = %d %v %v", rounds, bytes, msgs)
	}
	c.Reset()
	if c.SimElapsed() != 0 {
		t.Fatal("reset failed")
	}
}

func TestDistributedDWProducesEmbeddings(t *testing.T) {
	g := ring(60)
	c := NewCluster(8, DefaultCostModel())
	cfg := DefaultDWConfig()
	cfg.DW.Dim = 8
	cfg.DW.WalksPerNode = 5
	cfg.DW.WalkLength = 10
	res := TrainDeepWalk(c, g, cfg)
	if res.Embeddings.Len() != 60 {
		t.Fatalf("embedded %d nodes", res.Embeddings.Len())
	}
	if c.SimElapsed() <= 0 {
		t.Fatal("no simulated time accounted")
	}
	// Ring neighbours should be more similar than antipodal nodes.
	var nb, far float64
	for i := 0; i < 60; i++ {
		nb += res.Embeddings.Cosine(txn.UserID(i), txn.UserID((i+1)%60))
		far += res.Embeddings.Cosine(txn.UserID(i), txn.UserID((i+30)%60))
	}
	if nb <= far {
		t.Errorf("neighbour cosine sum %.2f <= antipodal %.2f", nb, far)
	}
}

func TestDWScalesWithMachines(t *testing.T) {
	// Figure 10 left shape: simulated DW time decreases as machines grow.
	g := ring(80)
	cfg := DefaultDWConfig()
	cfg.DW.WalksPerNode = 3
	cfg.DW.WalkLength = 10
	cfg.DW.Dim = 8
	var prev float64 = 1e18
	for _, m := range []int{4, 10, 20, 40} {
		c := NewCluster(m, DefaultCostModel())
		TrainDeepWalk(c, g, cfg)
		cur := c.SimElapsed().Seconds()
		if cur >= prev {
			t.Errorf("DW time did not decrease at %d machines: %v >= %v", m, cur, prev)
		}
		prev = cur
	}
}

func TestDWWorkerRecovery(t *testing.T) {
	g := ring(40)
	cfg := DefaultDWConfig()
	cfg.DW.Dim = 8
	cfg.DW.WalksPerNode = 4
	cfg.DW.WalkLength = 10
	cfg.FailWorker = 1
	cfg.FailAfterBatches = 2
	c := NewCluster(6, DefaultCostModel())
	res := TrainDeepWalk(c, g, cfg)
	if res.Recovered != 1 {
		t.Fatalf("recovered = %d, want 1", res.Recovered)
	}
	if res.Embeddings.Len() != 40 {
		t.Fatal("recovery lost embeddings")
	}
}

func mkData(n int) (*feature.Matrix, []bool) {
	r := rng.New(3)
	m := feature.NewMatrix(n, 6)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 6; j++ {
			m.Set(i, j, r.Float64())
		}
		labels[i] = m.At(i, 0) > 0.6 && m.At(i, 1) < 0.5
		if r.Bool(0.05) {
			labels[i] = !labels[i]
		}
	}
	return m, labels
}

// TestDistributedGBDTMatchesQuality holds the data-parallel trainer to the
// single-machine one bit for bit: however the rows are sharded, the merged
// histograms pick the same splits and leaves, so every score must equal
// gbdt.Train's exactly. The AUC floor guards the pair against a shared
// regression.
func TestDistributedGBDTMatchesQuality(t *testing.T) {
	m, labels := mkData(3000)
	cfg := DefaultGBDTConfig()
	cfg.GBDT.Trees = 60
	want := mustScores(gbdt.Train(m, labels, cfg.GBDT), m)
	if auc := metrics.AUC(want, labels); auc < 0.9 {
		t.Errorf("GBDT AUC %.3f < 0.9", auc)
	}
	for _, machines := range []int{2, 4, 8, 40} {
		c := NewCluster(machines, DefaultCostModel())
		got := mustScores(TrainGBDT(c, m, labels, cfg), m)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d machines: row %d scores %v, single machine %v", machines, i, got[i], want[i])
			}
		}
		if c.SimElapsed() <= 0 {
			t.Fatalf("%d machines: no simulated time", machines)
		}
	}
}

func TestGBDTFlattensAtScale(t *testing.T) {
	// Figure 10 right shape: GBDT improves 4 -> 20 machines but NOT
	// proportionally 20 -> 40 (communication bound).
	m, labels := mkData(2000)
	cfg := DefaultGBDTConfig()
	cfg.GBDT.Trees = 60
	cfg.WorkScale = 5e6 // represent a paper-scale workload in the clock
	times := map[int]float64{}
	for _, mach := range []int{4, 10, 20, 40} {
		c := NewCluster(mach, DefaultCostModel())
		TrainGBDT(c, m, labels, cfg)
		times[mach] = c.SimElapsed().Seconds()
	}
	if times[20] >= times[4]/2 {
		t.Errorf("GBDT did not improve substantially 4->20 machines: %v", times)
	}
	// The 20->40 gain must be far less than the 2x of perfect scaling.
	if times[40] < times[20]*0.6 {
		t.Errorf("GBDT scaled too well 20->40: %v", times)
	}
}

func TestGBDTDeterminism(t *testing.T) {
	m, labels := mkData(800)
	cfg := DefaultGBDTConfig()
	cfg.GBDT.Trees = 10
	a := TrainGBDT(NewCluster(4, DefaultCostModel()), m, labels, cfg)
	b := TrainGBDT(NewCluster(4, DefaultCostModel()), m, labels, cfg)
	for i := 0; i < m.Rows; i += 31 {
		if a.Score(m.Row(i)) != b.Score(m.Row(i)) {
			t.Fatal("distributed GBDT not deterministic")
		}
	}
}

func TestDWEmptyGraph(t *testing.T) {
	g := graph.NewBuilder().Build()
	c := NewCluster(4, DefaultCostModel())
	res := TrainDeepWalk(c, g, DefaultDWConfig())
	if res.Embeddings.Len() != 0 {
		t.Fatal("phantom embeddings")
	}
}

var _ = nrl.NewEmbeddings // keep import for doc reference
