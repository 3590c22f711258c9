package ms

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"titant/internal/feature"
	"titant/internal/model"

	// Every concrete detector registers its gob type in init; linking
	// them here makes DecodeBundle self-sufficient, so standalone
	// consumers (titant serve -bundle, POST /v1/models) can decode bundles
	// produced by any training pipeline.
	_ "titant/internal/model/gbdt"
	_ "titant/internal/model/iforest"
	_ "titant/internal/model/lr"
	_ "titant/internal/model/ruletree"
)

// Combiner selects how an ensemble bundle folds its members' scores into
// the one score the threshold is applied to.
type Combiner uint8

// Combiners of the v2 bundle format.
const (
	// CombineMean is the weight-averaged member score:
	// sum(w_i * s_i) / sum(w_i).
	CombineMean Combiner = iota
	// CombineMax is the most suspicious member's score (weights ignored):
	// one confident detector is enough to flag.
	CombineMax
	// CombineVote is the weighted fraction of members whose score crosses
	// their own threshold: sum(w_i * [s_i >= thr_i]) / sum(w_i). The
	// bundle threshold then acts on the vote share (0.5 = majority).
	CombineVote
)

func (c Combiner) String() string {
	switch c {
	case CombineMean:
		return "mean"
	case CombineMax:
		return "max"
	case CombineVote:
		return "vote"
	}
	return fmt.Sprintf("Combiner(%d)", int(c))
}

// ParseCombiner maps the wire/CLI names back to Combiner values.
func ParseCombiner(s string) (Combiner, error) {
	switch s {
	case "mean":
		return CombineMean, nil
	case "max":
		return CombineMax, nil
	case "vote":
		return CombineVote, nil
	}
	return 0, fmt.Errorf("%w: unknown combiner %q (want mean, max or vote)", ErrBundleInvalid, s)
}

// Member is one detector of a v2 ensemble bundle. Exported for gob.
type Member struct {
	Name       string
	ModelBytes []byte  // gob-encoded model.Classifier
	Weight     float64 // combiner weight; <= 0 reads as 1
	Threshold  float64 // member-local firing threshold (vote combiner)
}

// weight returns the member's effective combiner weight.
func (m *Member) weight() float64 {
	if m.Weight <= 0 {
		return 1
	}
	return m.Weight
}

// EnsembleMember describes one trained detector when building an ensemble
// bundle (the pre-encoding form of Member).
type EnsembleMember struct {
	Name      string
	Clf       model.Classifier
	Weight    float64 // <= 0 reads as 1
	Threshold float64 // member-local firing threshold (vote combiner)
}

// Bundle is the model file the offline pipeline uploads to the Model
// Server after each training run. Two formats share the struct:
//
//   - v1 (single model): ModelBytes carries the one classifier, Threshold
//     is its frozen decision threshold. Members is empty.
//   - v2 (ensemble): Members carries an ordered set of named classifiers,
//     Combine folds their scores, Threshold acts on the combined score.
//     ModelBytes is empty.
//
// Both travel through the same gob encoding, so a v1 bundle written by an
// older pipeline decodes transparently here (gob leaves the absent v2
// fields zero) and serves as a one-member mean ensemble. City and
// EmbeddingDim mean the same thing in both formats.
type Bundle struct {
	Version      string // e.g. the training date, per the paper's versioning
	ModelBytes   []byte // v1: gob-encoded model.Classifier
	Threshold    float64
	City         feature.CityTable
	EmbeddingDim int
	Members      []Member // v2: ordered ensemble
	Combine      Combiner

	ens *ensemble // decoded runtime view, built by validate
}

// NewBundle builds a v1 single-model bundle around a trained classifier.
func NewBundle(version string, clf model.Classifier, threshold float64, city feature.CityTable, embDim int) (*Bundle, error) {
	mb, err := model.Encode(clf)
	if err != nil {
		return nil, err
	}
	b := &Bundle{
		Version: version, ModelBytes: mb, Threshold: threshold,
		City: city, EmbeddingDim: embDim,
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// NewEnsembleBundle builds a v2 bundle from an ordered set of trained
// detectors. threshold acts on the combined score.
func NewEnsembleBundle(version string, members []EnsembleMember, combine Combiner, threshold float64, city feature.CityTable, embDim int) (*Bundle, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("%w: ensemble needs at least one member", ErrBundleInvalid)
	}
	b := &Bundle{
		Version: version, Threshold: threshold,
		City: city, EmbeddingDim: embDim,
		Members: make([]Member, len(members)),
		Combine: combine,
	}
	for i := range members {
		m := &members[i]
		mb, err := model.Encode(m.Clf)
		if err != nil {
			return nil, fmt.Errorf("%w: member %q: %v", ErrBundleInvalid, m.Name, err)
		}
		b.Members[i] = Member{Name: m.Name, ModelBytes: mb, Weight: m.Weight, Threshold: m.Threshold}
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// ensemble is the decoded runtime view of a bundle: every member's
// classifier plus the combiner inputs, in member order. single marks a v1
// bundle, whose responses omit per-member scores for wire compatibility.
type ensemble struct {
	names   []string
	clfs    []model.Classifier
	weights []float64
	thrs    []float64
	combine Combiner
	single  bool
}

// validate checks the bundle's internal consistency and builds the decoded
// ensemble view: every member must decode and agree with the declared
// feature width, so an inconsistent bundle is rejected at publication
// instead of failing inside the scoring hot path.
func (b *Bundle) validate() error {
	want := feature.NumBasic + 2*b.EmbeddingDim
	switch {
	case len(b.Members) > 0 && len(b.ModelBytes) > 0:
		return fmt.Errorf("%w: bundle carries both a v1 model and v2 members", ErrBundleInvalid)
	case len(b.Members) == 0 && len(b.ModelBytes) == 0:
		return fmt.Errorf("%w: bundle carries no model", ErrBundleInvalid)
	}
	switch b.Combine {
	case CombineMean, CombineMax, CombineVote:
	default:
		return fmt.Errorf("%w: unknown combiner %d", ErrBundleInvalid, int(b.Combine))
	}
	ens := &ensemble{combine: b.Combine}
	check := func(name string, raw []byte, weight, thr float64) error {
		clf, err := model.Decode(raw)
		if err != nil {
			return fmt.Errorf("%w: member %q: %v", ErrBundleInvalid, name, err)
		}
		if got := clf.NumFeatures(); got != want {
			return fmt.Errorf("%w: member %q wants %d features, bundle declares %d (%d basic + 2×%d embedding)",
				ErrBundleInvalid, name, got, want, feature.NumBasic, b.EmbeddingDim)
		}
		ens.names = append(ens.names, name)
		ens.clfs = append(ens.clfs, clf)
		ens.weights = append(ens.weights, weight)
		ens.thrs = append(ens.thrs, thr)
		return nil
	}
	if len(b.Members) > 0 {
		seen := make(map[string]bool, len(b.Members))
		for i := range b.Members {
			m := &b.Members[i]
			if m.Name == "" {
				return fmt.Errorf("%w: member %d has no name", ErrBundleInvalid, i)
			}
			if seen[m.Name] {
				return fmt.Errorf("%w: duplicate member name %q", ErrBundleInvalid, m.Name)
			}
			seen[m.Name] = true
			if err := check(m.Name, m.ModelBytes, m.weight(), m.Threshold); err != nil {
				return err
			}
		}
	} else {
		// v1: the single classifier serves as a one-member ensemble whose
		// member threshold is the bundle threshold.
		ens.single = true
		if err := check("model", b.ModelBytes, 1, b.Threshold); err != nil {
			return err
		}
	}
	b.ens = ens
	return nil
}

// breakdown is how many per-member score series a pass exposes: one per
// member, none for a v1 single-model bundle, whose only score is the
// combined one.
func (e *ensemble) breakdown() int {
	if e.single {
		return 0
	}
	return len(e.clfs)
}

// runtime returns the decoded ensemble view, building it on first use for
// bundles that skipped validation (e.g. hand-assembled in tests).
func (b *Bundle) runtime() (*ensemble, error) {
	if b.ens != nil {
		return b.ens, nil
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	return b.ens, nil
}

// Classifier returns the decoded model of a v1 bundle, or the first
// member of a v2 ensemble. Decode failures wrap ErrBundleInvalid.
func (b *Bundle) Classifier() (model.Classifier, error) {
	ens, err := b.runtime()
	if err != nil {
		return nil, err
	}
	return ens.clfs[0], nil
}

// NumMembers returns how many classifiers the bundle carries (1 for v1).
func (b *Bundle) NumMembers() int {
	if len(b.Members) > 0 {
		return len(b.Members)
	}
	return 1
}

// ScoreMatrix scores every row of m through the ensemble: dst receives the
// combined scores, and when memberDst is non-nil it must hold one slice of
// m.Rows per member, receiving the per-member scores. Each member takes
// its detector's batch path (model.BatchScorer) when it has one. A feature
// width mismatch surfaces as ErrDimensionMismatch.
func (b *Bundle) ScoreMatrix(dst []float64, memberDst [][]float64, m *feature.Matrix) error {
	ens, err := b.runtime()
	if err != nil {
		return err
	}
	return ens.score(dst, memberDst, m)
}

func (e *ensemble) score(dst []float64, memberDst [][]float64, m *feature.Matrix) error {
	if len(dst) != m.Rows {
		return fmt.Errorf("%w: dst has %d slots, matrix %d rows", ErrDimensionMismatch, len(dst), m.Rows)
	}
	if memberDst != nil && len(memberDst) != len(e.clfs) {
		return fmt.Errorf("%w: memberDst has %d slices, ensemble %d members", ErrDimensionMismatch, len(memberDst), len(e.clfs))
	}
	// One member combines to itself under mean and max; vote still needs
	// the threshold step, and explainability still needs the raw scores.
	if len(e.clfs) == 1 && e.combine != CombineVote {
		if err := scoreMember(dst, e.clfs[0], m); err != nil {
			return err
		}
		if memberDst != nil {
			copy(memberDst[0], dst)
		}
		return nil
	}
	var totalW float64
	for _, w := range e.weights {
		totalW += w
	}
	scratch := memberDst
	if scratch == nil {
		sc := getScoreScratch(len(e.clfs), m.Rows)
		defer putScoreScratch(sc)
		scratch = sc.members
	}
	for k, clf := range e.clfs {
		if err := scoreMember(scratch[k], clf, m); err != nil {
			return fmt.Errorf("member %q: %w", e.names[k], err)
		}
	}
	for i := 0; i < m.Rows; i++ {
		switch e.combine {
		case CombineMax:
			s := scratch[0][i]
			for k := 1; k < len(scratch); k++ {
				if scratch[k][i] > s {
					s = scratch[k][i]
				}
			}
			dst[i] = s
		case CombineVote:
			var fired float64
			for k := range scratch {
				if scratch[k][i] >= e.thrs[k] {
					fired += e.weights[k]
				}
			}
			dst[i] = fired / totalW
		default: // CombineMean
			var s float64
			for k := range scratch {
				s += e.weights[k] * scratch[k][i]
			}
			dst[i] = s / totalW
		}
	}
	return nil
}

// scoreMember runs one classifier's batch path, translating the model
// layer's width error into the serving layer's typed error.
func scoreMember(dst []float64, clf model.Classifier, m *feature.Matrix) error {
	if err := model.ScoreMatrixInto(dst, clf, m); err != nil {
		return fmt.Errorf("%w: %v", ErrDimensionMismatch, err)
	}
	return nil
}

// Encode serialises the bundle for upload.
func (b *Bundle) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		return nil, fmt.Errorf("ms: encode bundle: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeBundle deserialises a bundle (either format). Failures wrap
// ErrBundleInvalid.
func DecodeBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&b); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrBundleInvalid, err)
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	return &b, nil
}
