// Package core implements the TitAnt pipeline of Figure 3: offline
// periodical training (build the transaction network from 90 days of
// records, learn user node embeddings, extract basic features, train a
// detector, freeze a decision threshold) and the artefacts the online side
// consumes (model bundles and HBase feature uploads).
//
// The paper's "T+1" protocol is encoded in Train: models train on the
// 14-day labeled window, the decision threshold is selected on the last
// two training days (labels are delayed, so no online tuning is possible),
// and the one Artifact both evaluates on the following test day and
// deploys, so the evaluated model is the served one.
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

// joinEmbeddings joins the feature set's embeddings onto the basic matrix
// of ts. emb may be nil for FeatBasic.
func joinEmbeddings(m *feature.Matrix, ts []txn.Transaction, fs FeatureSet, emb *Embeddings, dim int) *feature.Matrix {
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

// Spec is one trained configuration: a Table 1 cell is a one-detector
// Spec, and the served configuration is Basic+DW over one or more
// detectors folded by Combine.
type Spec struct {
	Features  FeatureSet
	Detectors []Detector
	Combine   ms.Combiner
}

// Result is one configuration's evaluation on one test day.
type Result struct {
	Dataset    int
	Spec       Spec
	F1         float64
	RecTop1    float64
	AUC        float64
	Threshold  float64
	TrainRows  int
	TestRows   int
	TestFrauds int
}

// Artifact is one trained configuration on one dataset: the model bundle
// the Model Server serves, and what Eval needs to score the test day
// through that same bundle.
type Artifact struct {
	spec      Spec
	users     []txn.User
	ds        *txn.Dataset
	emb       *Embeddings
	opts      Options
	ex        *feature.Extractor
	members   []ms.EnsembleMember // as trained, for TrainEnsembleForServing
	bundle    *ms.Bundle          // validated, unversioned
	trainRows int
}

// Train runs the T+1 pipeline of Figure 3 for one Spec: extract features
// on the 14 training days, train every detector on the days before the
// last opts.ValDays, freeze each member's threshold and the combined one
// on those validation days, and build the bundle. emb may be nil, and
// then Train learns what spec.Features needs beside the basic features.
// Labels arrive too late to tune online, so validation days without a
// fraud label are an error: no threshold could be frozen.
func Train(users []txn.User, ds *txn.Dataset, spec Spec, emb *Embeddings, opts Options) (*Artifact, error) {
	if len(spec.Detectors) == 0 {
		return nil, fmt.Errorf("core: a spec needs at least one detector")
	}
	a := &Artifact{spec: spec, users: users, ds: ds, emb: emb, opts: opts}
	var agg *feature.Aggregates
	var basic *feature.Matrix
	features := func() {
		agg = feature.BuildAggregates(ds.Network, opts.Cities)
		a.ex = feature.NewExtractor(users, agg)
		basic = a.ex.BasicMatrix(ds.Train)
	}
	if emb == nil && spec.Features != FeatBasic {
		// The walks are the work; the basic features, which the walks do
		// not read, run beside them.
		par.Do(len(users)*opts.DW.WalksPerNode*opts.DW.WalkLength, func() {
			if spec.Features == FeatBasicDW {
				a.emb = LearnDW(ds, opts)
			} else {
				a.emb = LearnEmbeddings(ds, opts)
			}
		}, features)
	} else {
		features()
	}
	trainM := joinEmbeddings(basic, ds.Train, spec.Features, a.emb, opts.Dim)
	labels := feature.LabelsOf(ds.Train)
	fitRows, valRows := splitByDay(ds.Train, ds.TrainEnd-txn.Day(opts.ValDays))
	fitM, fitL := subset(trainM, labels, fitRows)
	valM, valL := subset(trainM, labels, valRows)
	if countTrue(valL) == 0 {
		return nil, fmt.Errorf("core: dataset %d: no fraud label on the %d validation day(s), so no threshold can be frozen",
			ds.Index, opts.ValDays)
	}
	a.trainRows = fitM.Rows

	for _, det := range spec.Detectors {
		clf := trainDetector(det, fitM, fitL, opts)
		_, thr := metrics.BestF1(mustScores(clf, valM), valL)
		a.members = append(a.members, ms.EnsembleMember{Name: det.Key(), Clf: clf, Weight: 1, Threshold: thr})
	}
	// Freeze the combined threshold on the validation scores of the
	// bundle itself: its decoded members, through its combiner.
	embDim := (valM.Cols - feature.NumBasic) / 2
	b, err := ms.NewEnsembleBundle("", a.members, spec.Combine, 0, agg.CityTable(), embDim)
	if err != nil {
		return nil, err
	}
	combined := make([]float64, valM.Rows)
	if err := b.ScoreMatrix(combined, nil, valM); err != nil {
		return nil, err
	}
	_, b.Threshold = metrics.BestF1(combined, valL)
	a.bundle = b
	return a, nil
}

// Eval scores the test day through the artifact's bundle, the one Deploy
// publishes, and measures it at the frozen threshold.
func (a *Artifact) Eval() Result {
	scores := a.scores(a.ds.Test)
	labels := feature.LabelsOf(a.ds.Test)
	return Result{
		Dataset:    a.ds.Index,
		Spec:       a.spec,
		F1:         metrics.F1At(scores, labels, a.bundle.Threshold),
		RecTop1:    metrics.RecallAtTop(scores, labels, 0.01),
		AUC:        metrics.AUC(scores, labels),
		Threshold:  a.bundle.Threshold,
		TrainRows:  a.trainRows,
		TestRows:   len(scores),
		TestFrauds: countTrue(labels),
	}
}

// scores scores ts offline through the bundle, with the features Train
// extracted. The bundle was built from matrices of the same extractor, so
// a width mismatch is a pipeline bug, not recoverable input.
func (a *Artifact) scores(ts []txn.Transaction) []float64 {
	m := joinEmbeddings(a.ex.BasicMatrix(ts), ts, a.spec.Features, a.emb, a.opts.Dim)
	out := make([]float64, m.Rows)
	if err := a.bundle.ScoreMatrix(out, nil, m); err != nil {
		panic(err)
	}
	return out
}

// Bundle returns the trained bundle under version, which follows the
// paper's date-time convention, without touching the online stores. The
// engine assembles Basic and Basic+DW features only, so a feature set
// with struc2vec embeddings cannot be served.
func (a *Artifact) Bundle(version string) (*ms.Bundle, error) {
	if a.spec.Features != FeatBasic && a.spec.Features != FeatBasicDW {
		return nil, fmt.Errorf("core: the engine assembles Basic or Basic+DW features, not %v", a.spec.Features)
	}
	b := *a.bundle
	b.Version = version
	return &b, nil
}

// Deploy materialises the artifact into the online stores: it uploads
// every user's profile, and DW embedding when the features join it, to
// sink (one table's ms.Uploader, or a sharded uploader over a ring of
// tables) and returns Bundle(version) for the Model Server.
func (a *Artifact) Deploy(sink UserSink, version string) (*ms.Bundle, error) {
	b, err := a.Bundle(version)
	if err != nil {
		return nil, err
	}
	var emb *Embeddings
	if a.spec.Features == FeatBasicDW {
		emb = a.emb
	}
	if err := uploadUsersTo(a.users, emb, sink); err != nil {
		return nil, err
	}
	return b, nil
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
	basic := feature.NewExtractor(users, agg).BasicMatrix(ds.Train)
	return joinEmbeddings(basic, ds.Train, fs, emb, opts.Dim), feature.LabelsOf(ds.Train)
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

// DeployEnsembleTo uploads every user's fragments to sink and returns a
// v2 bundle combining the trained members. It exists only for
// bench/fixture.go, until ROADMAP item 10-bench (k) moves the fixture to
// Train and Artifact.Deploy.
func DeployEnsembleTo(users []txn.User, ds *txn.Dataset, emb *Embeddings, members []ms.EnsembleMember, combine ms.Combiner, threshold float64, opts Options, sink UserSink, version string) (*ms.Bundle, error) {
	agg := feature.BuildAggregates(ds.Network, opts.Cities)
	if err := uploadUsersTo(users, emb, sink); err != nil {
		return nil, err
	}
	dim := 0
	if emb != nil && emb.DW != nil {
		dim = emb.DW.Dim()
	}
	return ms.NewEnsembleBundle(version, members, combine, threshold, agg.CityTable(), dim)
}

// TrainEnsembleForServing is Train on Basic+DW in the shape
// bench/fixture.go reads. It exists only for bench/, until ROADMAP item
// 10-bench (k) moves the fixture to Train.
func TrainEnsembleForServing(users []txn.User, ds *txn.Dataset, dets []Detector, combine ms.Combiner, opts Options) ([]ms.EnsembleMember, *Embeddings, float64, error) {
	a, err := Train(users, ds, Spec{Features: FeatBasicDW, Detectors: dets, Combine: combine}, nil, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	return a.members, a.emb, a.bundle.Threshold, nil
}
