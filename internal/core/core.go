// Package core implements the TitAnt pipeline of Figure 3: offline
// periodical training (build the transaction network from 90 days of
// records, learn user node embeddings, extract basic features, train a
// detector, freeze a decision threshold) and the artefacts the online side
// consumes (model bundles and HBase feature uploads).
//
// The paper's "T+1" protocol is encoded in TrainEval: models train on the
// 14-day labeled window and are evaluated on the following test day, with
// the decision threshold selected on the last two training days (labels
// are delayed, so no online tuning is possible).
package core

import (
	"fmt"
	"strings"

	"titant/internal/feature"
	"titant/internal/graph"
	"titant/internal/metrics"
	"titant/internal/model"
	"titant/internal/model/gbdt"
	"titant/internal/model/iforest"
	"titant/internal/model/lr"
	"titant/internal/model/ruletree"
	"titant/internal/ms"
	"titant/internal/nrl"
	"titant/internal/nrl/deepwalk"
	"titant/internal/nrl/struc2vec"
	"titant/internal/par"
	"titant/internal/txn"
)

// FeatureSet selects which features feed the detector (Table 1 rows).
type FeatureSet int

// Feature sets of Table 1.
const (
	FeatBasic FeatureSet = iota
	FeatBasicS2V
	FeatBasicDW
	FeatBasicDWS2V
)

func (f FeatureSet) String() string {
	switch f {
	case FeatBasic:
		return "Basic"
	case FeatBasicS2V:
		return "Basic+S2V"
	case FeatBasicDW:
		return "Basic+DW"
	case FeatBasicDWS2V:
		return "Basic+DW+S2V"
	}
	return fmt.Sprintf("FeatureSet(%d)", int(f))
}

// Detector selects the detection method (Table 1 columns / Figure 9 bars).
type Detector int

// Detectors evaluated in the paper.
const (
	DetIF Detector = iota
	DetID3
	DetC50
	DetLR
	DetGBDT
)

func (d Detector) String() string {
	switch d {
	case DetIF:
		return "IF"
	case DetID3:
		return "ID3"
	case DetC50:
		return "C5.0"
	case DetLR:
		return "LR"
	case DetGBDT:
		return "GBDT"
	}
	return fmt.Sprintf("Detector(%d)", int(d))
}

// Key returns the detector's lowercase CLI/bundle-member name.
func (d Detector) Key() string {
	switch d {
	case DetIF:
		return "if"
	case DetID3:
		return "id3"
	case DetC50:
		return "c50"
	case DetLR:
		return "lr"
	case DetGBDT:
		return "gbdt"
	}
	return fmt.Sprintf("detector%d", int(d))
}

// ParseDetector maps a CLI name back to a Detector.
func ParseDetector(s string) (Detector, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "if", "iforest":
		return DetIF, nil
	case "id3":
		return DetID3, nil
	case "c50", "c5.0":
		return DetC50, nil
	case "lr":
		return DetLR, nil
	case "gbdt":
		return DetGBDT, nil
	}
	return 0, fmt.Errorf("core: unknown detector %q (want if, id3, c50, lr or gbdt)", s)
}

// Options bundles every component's hyperparameters. DefaultOptions
// matches the paper's Section 5.1 settings (GBDT 400x3 with 0.4
// subsampling, LR with 200 bins and L1 0.1, IF with 100 trees, embedding
// dimension 32) with laptop-scale NRL sampling effort.
type Options struct {
	Cities  int // city-table size for aggregates
	ValDays int // training days reserved for threshold selection
	Dim     int // embedding dimension
	DW      deepwalk.Config
	S2V     struc2vec.Config
	LR      lr.Config
	GBDT    gbdt.Config
	ID3     ruletree.Config
	C50     ruletree.Config
	IF      iforest.Config
	Seed    uint64
}

// DefaultOptions returns the paper-aligned configuration.
func DefaultOptions() Options {
	o := Options{
		Cities:  128,
		ValDays: 2,
		Dim:     32,
		DW:      deepwalk.BenchConfig(),
		S2V:     struc2vec.DefaultConfig(),
		LR:      lr.DefaultConfig(),
		GBDT:    gbdt.DefaultConfig(),
		ID3:     ruletree.DefaultID3(),
		C50:     ruletree.DefaultC50(),
		IF:      iforest.DefaultConfig(),
		Seed:    1,
	}
	o.DW.Dim = o.Dim
	o.S2V.Dim = o.Dim
	return o
}

// Embeddings caches the two NRL methods' outputs for one dataset, shared
// across detector configurations (the paper trains embeddings once per
// day, not once per configuration).
type Embeddings struct {
	DW  *nrl.Embeddings
	S2V *nrl.Embeddings
}

// LearnEmbeddings builds the transaction network from the dataset's
// 90-day window and trains both NRL methods, side by side: they only read
// the graph.
func LearnEmbeddings(ds *txn.Dataset, opts Options) *Embeddings {
	g := graph.FromTransactions(ds.Network)
	dwCfg := opts.DW
	dwCfg.Dim = opts.Dim
	dwCfg.Seed = opts.Seed
	s2vCfg := opts.S2V
	s2vCfg.Dim = opts.Dim
	s2vCfg.Seed = opts.Seed
	emb := &Embeddings{}
	par.Do(g.NumNodes()*dwCfg.WalksPerNode*dwCfg.WalkLength,
		func() { emb.DW = deepwalk.Train(g, dwCfg) },
		func() { emb.S2V = struc2vec.Train(g, s2vCfg) })
	return emb
}

// LearnDW trains only DeepWalk (for sweeps that do not need S2V).
func LearnDW(ds *txn.Dataset, opts Options) *Embeddings {
	g := graph.FromTransactions(ds.Network)
	dwCfg := opts.DW
	dwCfg.Dim = opts.Dim
	dwCfg.Seed = opts.Seed
	return &Embeddings{DW: deepwalk.Train(g, dwCfg)}
}

// buildMatrix assembles the feature matrix for a transaction slice under a
// feature set.
func buildMatrix(ex *feature.Extractor, ts []txn.Transaction, fs FeatureSet, emb *Embeddings, dim int) *feature.Matrix {
	m := ex.BasicMatrix(ts)
	switch fs {
	case FeatBasic:
		return m
	case FeatBasicS2V:
		return feature.WithEmbeddings(m, ts, dim, emb.S2V.Lookup)
	case FeatBasicDW:
		return feature.WithEmbeddings(m, ts, dim, emb.DW.Lookup)
	case FeatBasicDWS2V:
		m = feature.WithEmbeddings(m, ts, dim, emb.DW.Lookup)
		return feature.WithEmbeddings(m, ts, dim, emb.S2V.Lookup)
	}
	panic(fmt.Sprintf("core: unknown feature set %d", int(fs)))
}

// Result is one configuration's evaluation on one test day.
type Result struct {
	Dataset    int
	Features   FeatureSet
	Detector   Detector
	F1         float64
	RecTop1    float64
	AUC        float64
	Threshold  float64
	TrainRows  int
	TestRows   int
	TestFrauds int
}

// TrainEval runs the full T+1 pipeline for one (dataset, feature set,
// detector) cell: extract features, train on the early training days,
// select the F1-maximising threshold on the validation days, evaluate on
// the test day. emb may be nil for FeatBasic.
func TrainEval(users []txn.User, ds *txn.Dataset, fs FeatureSet, det Detector, emb *Embeddings, opts Options) Result {
	agg := feature.BuildAggregates(ds.Network, opts.Cities)
	ex := feature.NewExtractor(users, agg)

	trainM := buildMatrix(ex, ds.Train, fs, emb, opts.Dim)
	testM := buildMatrix(ex, ds.Test, fs, emb, opts.Dim)
	labels := feature.LabelsOf(ds.Train)

	// Split the 14 training days into fit + validation by day.
	valStart := ds.TrainEnd - txn.Day(opts.ValDays)
	fitRows, valRows := splitByDay(ds.Train, valStart)
	fitM, fitL := subset(trainM, labels, fitRows)
	valM, valL := subset(trainM, labels, valRows)

	clf := trainDetector(det, fitM, fitL, opts)

	valScores := mustScores(clf, valM)
	_, threshold := metrics.BestF1(valScores, valL)

	testScores := mustScores(clf, testM)
	testLabels := feature.LabelsOf(ds.Test)
	return Result{
		Dataset:    ds.Index,
		Features:   fs,
		Detector:   det,
		F1:         metrics.F1At(testScores, testLabels, threshold),
		RecTop1:    metrics.RecallAtTop(testScores, testLabels, 0.01),
		AUC:        metrics.AUC(testScores, testLabels),
		Threshold:  threshold,
		TrainRows:  fitM.Rows,
		TestRows:   testM.Rows,
		TestFrauds: countTrue(testLabels),
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// trainDetector dispatches to the concrete trainer.
func trainDetector(det Detector, m *feature.Matrix, labels []bool, opts Options) model.Classifier {
	switch det {
	case DetIF:
		cfg := opts.IF
		cfg.Seed = opts.Seed
		return iforest.Train(m, cfg)
	case DetID3:
		return ruletree.Train(m, labels, opts.ID3)
	case DetC50:
		return ruletree.Train(m, labels, opts.C50)
	case DetLR:
		cfg := opts.LR
		cfg.Seed = opts.Seed
		return lr.Train(m, labels, cfg)
	case DetGBDT:
		cfg := opts.GBDT
		cfg.Seed = opts.Seed
		return gbdt.Train(m, labels, cfg)
	}
	panic(fmt.Sprintf("core: unknown detector %d", int(det)))
}

// mustScores scores m through model.ScoreMatrix, which dispatches to the
// detector's batch path when it implements model.BatchScorer. Training-time
// matrices are built by the same extractor that shaped the model, so a
// width mismatch here is a pipeline bug, not recoverable input.
func mustScores(clf model.Classifier, m *feature.Matrix) []float64 {
	s, err := model.ScoreMatrix(clf, m)
	if err != nil {
		panic(err)
	}
	return s
}

// splitByDay partitions row indices of ts by whether their day is before
// valStart.
func splitByDay(ts []txn.Transaction, valStart txn.Day) (fit, val []int) {
	for i := range ts {
		if ts[i].Day < valStart {
			fit = append(fit, i)
		} else {
			val = append(val, i)
		}
	}
	return fit, val
}

// subset materialises the given rows of m (and labels).
func subset(m *feature.Matrix, labels []bool, rows []int) (*feature.Matrix, []bool) {
	out := feature.NewMatrix(len(rows), m.Cols)
	ls := make([]bool, len(rows))
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
		ls[i] = labels[r]
	}
	return out, ls
}

// TrainMatrix builds the full 14-day training matrix and labels for a
// feature set - exposed for the experiment harness (e.g. the distributed
// GBDT of Figure 10 trains on the same matrix the single-machine path
// uses).
func TrainMatrix(users []txn.User, ds *txn.Dataset, fs FeatureSet, emb *Embeddings, opts Options) (*feature.Matrix, []bool) {
	agg := feature.BuildAggregates(ds.Network, opts.Cities)
	ex := feature.NewExtractor(users, agg)
	return buildMatrix(ex, ds.Train, fs, emb, opts.Dim), feature.LabelsOf(ds.Train)
}

// UserSink receives deployed user rows. The plain feature-table
// Uploader satisfies it, as does the sharded uploader that routes each
// row to its owner table by consistent hash — so one deployment path
// feeds a single store and a ring of shard stores alike.
type UserSink interface {
	PutUser(u *txn.User, vec []float32) error
}

// uploadUsersTo materialises every user's profile and DW embedding into
// the sink.
func uploadUsersTo(users []txn.User, emb *Embeddings, sink UserSink) error {
	for i := range users {
		u := &users[i]
		var vec []float32
		if emb != nil && emb.DW != nil {
			vec = emb.DW.Lookup(u.ID)
		}
		if err := sink.PutUser(u, vec); err != nil {
			return fmt.Errorf("core: upload user %d: %w", u.ID, err)
		}
	}
	return nil
}

func embDim(emb *Embeddings) int {
	if emb != nil && emb.DW != nil {
		return emb.DW.Dim()
	}
	return 0
}

// DeployTo materialises a trained day into the online stores: uploads
// every user's profile and DW embedding to sink (one table's ms.Uploader,
// or a sharded uploader over a ring of tables) and returns the model
// bundle for the Model Server. version follows the paper's date-time
// convention.
func DeployTo(users []txn.User, ds *txn.Dataset, emb *Embeddings, clf model.Classifier, threshold float64, opts Options, sink UserSink, version string) (*ms.Bundle, error) {
	agg := feature.BuildAggregates(ds.Network, opts.Cities)
	if err := uploadUsersTo(users, emb, sink); err != nil {
		return nil, err
	}
	return ms.NewBundle(version, clf, threshold, agg.CityTable(), embDim(emb))
}

// BuildEnsembleBundle assembles a v2 ensemble bundle from trained members
// without touching the online stores — the bundle-file half of an
// ensemble deployment (see DeployEnsembleTo for the uploading variant).
func BuildEnsembleBundle(ds *txn.Dataset, emb *Embeddings, members []ms.EnsembleMember, combine ms.Combiner, threshold float64, opts Options, version string) (*ms.Bundle, error) {
	agg := feature.BuildAggregates(ds.Network, opts.Cities)
	return ms.NewEnsembleBundle(version, members, combine, threshold, agg.CityTable(), embDim(emb))
}

// DeployEnsembleTo is DeployTo for ensemble bundles: uploads every
// user's fragments and returns a v2 bundle combining the trained members.
func DeployEnsembleTo(users []txn.User, ds *txn.Dataset, emb *Embeddings, members []ms.EnsembleMember, combine ms.Combiner, threshold float64, opts Options, sink UserSink, version string) (*ms.Bundle, error) {
	agg := feature.BuildAggregates(ds.Network, opts.Cities)
	if err := uploadUsersTo(users, emb, sink); err != nil {
		return nil, err
	}
	return ms.NewEnsembleBundle(version, members, combine, threshold, agg.CityTable(), embDim(emb))
}

// TrainEnsembleForServing trains one detector per entry of dets on the
// production feature set (Basic+DW), freezing each member's own threshold
// and the combined decision threshold on the validation days — the same
// T+1 protocol TrainForServing applies to the single GBDT. The returned
// members are ordered as requested, weighted equally, and named by
// Detector.Key.
func TrainEnsembleForServing(users []txn.User, ds *txn.Dataset, dets []Detector, combine ms.Combiner, opts Options) ([]ms.EnsembleMember, *Embeddings, float64, error) {
	if len(dets) == 0 {
		return nil, nil, 0, fmt.Errorf("core: ensemble needs at least one detector")
	}
	emb, agg, fitM, fitL, valM, valL := servingMatrices(users, ds, opts)
	members := make([]ms.EnsembleMember, 0, len(dets))
	for _, det := range dets {
		clf := trainDetector(det, fitM, fitL, opts)
		_, thr := metrics.BestF1(mustScores(clf, valM), valL)
		members = append(members, ms.EnsembleMember{Name: det.Key(), Clf: clf, Weight: 1, Threshold: thr})
	}

	// Freeze the ensemble threshold on the combined validation scores,
	// through the same combiner the bundle will serve with.
	probe, err := ms.NewEnsembleBundle("val", members, combine, 0, agg.CityTable(), opts.Dim)
	if err != nil {
		return nil, nil, 0, err
	}
	combined := make([]float64, valM.Rows)
	if err := probe.ScoreMatrix(combined, nil, valM); err != nil {
		return nil, nil, 0, err
	}
	_, threshold := metrics.BestF1(combined, valL)
	return members, emb, threshold, nil
}

// TrainForServing runs the paper's production configuration (Basic+DW+
// GBDT, the Table 1 winner) on a dataset and returns everything the
// online side needs.
func TrainForServing(users []txn.User, ds *txn.Dataset, opts Options) (model.Classifier, *Embeddings, float64, error) {
	emb, _, fitM, fitL, valM, valL := servingMatrices(users, ds, opts)
	cfg := opts.GBDT
	cfg.Seed = opts.Seed
	clf := gbdt.Train(fitM, fitL, cfg)
	_, threshold := metrics.BestF1(mustScores(clf, valM), valL)
	return clf, emb, threshold, nil
}

// servingMatrices is both serving trainers' preamble. It learns DeepWalk
// beside the aggregates and the basic training features, which it does
// not read, counting its walk steps as the work; then it joins the
// embeddings on (Basic+DW) and splits the rows into the fit and the
// validation days.
func servingMatrices(users []txn.User, ds *txn.Dataset, opts Options) (emb *Embeddings, agg *feature.Aggregates, fitM *feature.Matrix, fitL []bool, valM *feature.Matrix, valL []bool) {
	var basic *feature.Matrix
	par.Do(len(users)*opts.DW.WalksPerNode*opts.DW.WalkLength,
		func() { emb = LearnDW(ds, opts) },
		func() {
			agg = feature.BuildAggregates(ds.Network, opts.Cities)
			basic = feature.NewExtractor(users, agg).BasicMatrix(ds.Train)
		})
	trainM := feature.WithEmbeddings(basic, ds.Train, opts.Dim, emb.DW.Lookup)
	labels := feature.LabelsOf(ds.Train)
	fitRows, valRows := splitByDay(ds.Train, ds.TrainEnd-txn.Day(opts.ValDays))
	fitM, fitL = subset(trainM, labels, fitRows)
	valM, valL = subset(trainM, labels, valRows)
	return emb, agg, fitM, fitL, valM, valL
}
