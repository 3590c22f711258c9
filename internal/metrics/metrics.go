// Package metrics implements the evaluation metrics of the paper's
// Section 5: F1 score (Table 1, Table 2, Figures 11-12) and recall at the
// top k% most-suspicious transactions (Figure 9, k=1%), plus the
// supporting machinery a production fraud team needs around them —
// confusion matrices, AUC, and BestF1 threshold selection. BestF1 is what
// the T+1 pipeline (internal/core) uses to freeze the decision threshold
// on the validation days: fraud labels arrive days late, so the serving
// threshold cannot be tuned online and must be fixed at training time.
// internal/exp drives these metrics to regenerate every number in the
// paper's evaluation.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Confuse computes the confusion matrix of predictions at a threshold:
// score >= threshold predicts fraud.
func Confuse(scores []float64, labels []bool, threshold float64) Confusion {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: %d scores vs %d labels", len(scores), len(labels)))
	}
	var c Confusion
	for i, s := range scores {
		pred := s >= threshold
		switch {
		case pred && labels[i]:
			c.TP++
		case pred && !labels[i]:
			c.FP++
		case !pred && labels[i]:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// Precision is TP/(TP+FP); 0 when nothing was predicted positive.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP/(TP+FN); 0 when there are no positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy is (TP+TN)/total.
func (c Confusion) Accuracy() float64 {
	n := c.TP + c.FP + c.TN + c.FN
	if n == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(n)
}

// String renders the matrix compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("tp=%d fp=%d tn=%d fn=%d p=%.4f r=%.4f f1=%.4f",
		c.TP, c.FP, c.TN, c.FN, c.Precision(), c.Recall(), c.F1())
}

// F1At is shorthand for Confuse(...).F1().
func F1At(scores []float64, labels []bool, threshold float64) float64 {
	return Confuse(scores, labels, threshold).F1()
}

// BestF1 scans all meaningful thresholds (the distinct scores) and returns
// the maximum achievable F1 and the threshold achieving it. Labels arrive
// too late to tune online, so the pipeline calls this on a validation slice
// and freezes the threshold for the test day (see "Offline plane" in
// docs/ARCHITECTURE.md).
func BestF1(scores []float64, labels []bool) (bestF1, bestThreshold float64) {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: %d scores vs %d labels", len(scores), len(labels)))
	}
	n := len(scores)
	if n == 0 {
		return 0, 0.5
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	totalPos := 0
	for _, l := range labels {
		if l {
			totalPos++
		}
	}
	if totalPos == 0 {
		return 0, math.Inf(1)
	}
	// Sweep the sorted scores: predicting the top i+1 as positive yields
	// tp=cumulative positives. F1 = 2tp / (predicted + totalPos).
	tp := 0
	bestF1, bestThreshold = 0, math.Inf(1)
	for i := 0; i < n; i++ {
		if labels[idx[i]] {
			tp++
		}
		// Only evaluate at boundaries between distinct scores, otherwise the
		// "threshold" would split ties inconsistently.
		if i+1 < n && scores[idx[i+1]] == scores[idx[i]] {
			continue
		}
		f1 := 2 * float64(tp) / float64(i+1+totalPos)
		if f1 > bestF1 {
			bestF1 = f1
			bestThreshold = scores[idx[i]]
		}
	}
	return bestF1, bestThreshold
}

// RecallAtTop returns the fraction of all fraud captured when flagging the
// top `fraction` (e.g. 0.01 for 1%) highest-scored transactions - the
// paper's rec@top1% metric of Figure 9. Ties at the cut are broken by
// original order after a stable sort on descending score.
func RecallAtTop(scores []float64, labels []bool, fraction float64) float64 {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: %d scores vs %d labels", len(scores), len(labels)))
	}
	n := len(scores)
	if n == 0 || fraction <= 0 {
		return 0
	}
	k := int(math.Ceil(fraction * float64(n)))
	if k > n {
		k = n
	}
	totalPos := 0
	for _, l := range labels {
		if l {
			totalPos++
		}
	}
	if totalPos == 0 {
		return 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	tp := 0
	for _, i := range idx[:k] {
		if labels[i] {
			tp++
		}
	}
	return float64(tp) / float64(totalPos)
}

// AUC computes the area under the ROC curve via the rank-sum (Mann-Whitney)
// formulation, with tie correction. Returns 0.5 when either class is empty.
func AUC(scores []float64, labels []bool) float64 {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: %d scores vs %d labels", len(scores), len(labels)))
	}
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	// Assign average ranks to ties.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	var pos int
	var sumPosRanks float64
	for i, l := range labels {
		if l {
			pos++
			sumPosRanks += ranks[i]
		}
	}
	neg := n - pos
	if pos == 0 || neg == 0 {
		return 0.5
	}
	return (sumPosRanks - float64(pos)*(float64(pos)+1)/2) / (float64(pos) * float64(neg))
}

// PRPoint is one point on a precision-recall curve.
type PRPoint struct {
	Threshold float64
	Precision float64
	Recall    float64
}

// PRCurve returns the precision-recall curve evaluated at every distinct
// score, ordered by descending threshold (increasing recall).
func PRCurve(scores []float64, labels []bool) []PRPoint {
	n := len(scores)
	if n == 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	totalPos := 0
	for _, l := range labels {
		if l {
			totalPos++
		}
	}
	var curve []PRPoint
	tp := 0
	for i := 0; i < n; i++ {
		if labels[idx[i]] {
			tp++
		}
		if i+1 < n && scores[idx[i+1]] == scores[idx[i]] {
			continue
		}
		p := float64(tp) / float64(i+1)
		r := 0.0
		if totalPos > 0 {
			r = float64(tp) / float64(totalPos)
		}
		curve = append(curve, PRPoint{Threshold: scores[idx[i]], Precision: p, Recall: r})
	}
	return curve
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
