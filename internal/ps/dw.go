package ps

import (
	"fmt"

	"titant/internal/graph"
	"titant/internal/nrl"
	"titant/internal/nrl/deepwalk"
	"titant/internal/rng"
)

// DWConfig configures the distributed DeepWalk job.
type DWConfig struct {
	DW deepwalk.Config
	// WorkScale multiplies the accounted (not executed) work, letting a
	// laptop-scale run represent the paper's 8M-record workload in the
	// simulated clock. 1 means account exactly what was executed.
	WorkScale float64
	// FailWorker >= 0 kills that worker once, after FailAfterBatches of its
	// batches, to exercise the paper's single-point-of-failure recovery
	// ("the failed instance can be restarted and recovered to the previous
	// status automatically while other instances remain not affected").
	FailWorker       int
	FailAfterBatches int
	BatchPairs       int // pairs per Push/Pull batch (default 512)
}

// DefaultDWConfig returns laptop-scale execution with paper-scale
// accounting.
func DefaultDWConfig() DWConfig {
	return DWConfig{
		DW:         deepwalk.BenchConfig(),
		WorkScale:  1,
		FailWorker: -1,
		BatchPairs: 512,
	}
}

// DWResult carries the trained embeddings plus accounting.
type DWResult struct {
	Embeddings *nrl.Embeddings
	Recovered  int // worker restarts performed
}

// TrainDeepWalk runs DeepWalk on the cluster: each worker walks its own
// node partition, pulls the touched embedding vectors from the server
// tier, applies skip-gram-with-negative-sampling updates locally, and
// pushes the vectors back (the paper's worker loop of Section 4.3). The
// server tier's model-average aggregation reduces to last-write in this
// bulk-sequential simulation; the cluster clock is charged as if all
// workers ran concurrently.
func TrainDeepWalk(c *Cluster, g *graph.Graph, cfg DWConfig) DWResult {
	if cfg.BatchPairs <= 0 {
		cfg.BatchPairs = 512
	}
	if cfg.WorkScale <= 0 {
		cfg.WorkScale = 1
	}
	n := g.NumNodes()
	out := DWResult{Embeddings: nrl.NewEmbeddings(cfg.DW.Dim)}
	if n == 0 {
		return out
	}
	if cfg.DW.WalkLength < 1 {
		panic(fmt.Sprintf("ps: bad walk length %d", cfg.DW.WalkLength))
	}
	r := rng.New(cfg.DW.Seed)
	// Server tier state: the embedding matrices, sharded by node id across
	// servers (shard = node % servers).
	params := deepwalk.NewSGNS(n, cfg.DW.Dim, r.Split(1))

	freq := make([]float64, n)
	for v := graph.NodeID(0); int(v) < n; v++ {
		freq[v] = float64(g.Degree(v))
	}
	neg := deepwalk.NewNegativeTable(freq, 1<<17)

	shards := c.Shard(n)
	dim := float64(cfg.DW.Dim)
	negs := float64(cfg.DW.Negatives + 1)
	opsPerPair := dim * negs * 8 // dot + sigmoid + two updates

	// Per-worker accounting accumulators for the current logical round.
	workerPairs := make([]float64, c.Workers)
	workerBatches := make([]float64, c.Workers)

	negBuf := make([]graph.NodeID, cfg.DW.Negatives)
	walk := make([]graph.NodeID, 0, cfg.DW.WalkLength)
	totalWalks := n * cfg.DW.WalksPerNode
	walkIdx := 0

	for w := 0; w < c.Workers; w++ {
		lo, hi := shards[w][0], shards[w][1]
		if lo >= hi {
			continue
		}
		wr := r.Split(uint64(w) + 100)
		batchPairs := 0
		failed := false
		for rep := 0; rep < cfg.DW.WalksPerNode; rep++ {
			for start := lo; start < hi; start++ {
				// Random walk from this worker's node.
				walk = deepwalk.Walk(g, graph.NodeID(start), walk, wr)
				progress := float64(walkIdx) / float64(totalWalks)
				walkIdx++
				lr := max(cfg.DW.LearningRate*(1-progress), cfg.DW.MinLR)
				for i, center := range walk {
					win := 1 + wr.Intn(cfg.DW.Window)
					for j := max(i-win, 0); j <= min(i+win, len(walk)-1); j++ {
						if j == i || walk[j] == center {
							continue
						}
						for k := range negBuf {
							negBuf[k] = neg.Sample(wr)
						}
						// Pull/update/push: params live on servers; the
						// update happens on the pulled copies which are
						// the same backing arrays in-process. The cost of
						// the pull+push is charged per batch below.
						params.Update(center, walk[j], negBuf, float32(lr))
						workerPairs[w]++
						batchPairs++
						if batchPairs >= cfg.BatchPairs {
							workerBatches[w]++
							batchPairs = 0
							if !failed && w == cfg.FailWorker && int(workerBatches[w]) == cfg.FailAfterBatches {
								// Simulated crash: local state is lost, but
								// parameters live on the servers, so the
								// restarted worker re-pulls and continues.
								failed = true
								out.Recovered++
								workerBatches[w] += 2 // restart re-pull cost
							}
						}
					}
				}
			}
		}
		if batchPairs > 0 {
			workerBatches[w]++
		}
	}

	// Charge the clock: one logical round per batch wave; workers proceed
	// independently, so the wall time is set by the busiest worker's
	// compute plus its share of server traffic.
	maxPairs, maxBatches, totalPairs := 0.0, 0.0, 0.0
	for w := 0; w < c.Workers; w++ {
		if workerPairs[w] > maxPairs {
			maxPairs = workerPairs[w]
		}
		if workerBatches[w] > maxBatches {
			maxBatches = workerBatches[w]
		}
		totalPairs += workerPairs[w]
	}
	scale := cfg.WorkScale
	// Bytes: each pair pulls+pushes (1+neg) vectors of dim float32s.
	bytesPerPair := (negs + 1) * dim * 4 * 2
	totalBatches := totalPairs / float64(cfg.BatchPairs)
	c.AccountRound(RoundCost{
		MaxWorkerOps:  maxPairs * opsPerPair * scale,
		TotalBytes:    totalPairs * bytesPerPair * scale,
		ServerOps:     totalPairs * dim * scale / float64(c.Servers),
		MsgsPerServer: totalBatches * scale / float64(c.Servers),
		RPCRounds:     maxBatches * scale,
	})

	for v := graph.NodeID(0); int(v) < n; v++ {
		out.Embeddings.Set(g.User(v), params.Syn0[v])
	}
	return out
}
