package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"titant/internal/ms"
	"titant/internal/txn"
)

// grade is the parity pass's verdict on one path: a digest of every
// decision's answer, and detection quality against the labels at the
// bundle's frozen threshold.
type grade struct {
	digest      string
	recall, fpr float64
}

// gradeDecisions digests decisions (transaction, score bits, fraud flag,
// action, reason — everything but latency) and scores them against the
// transactions' ground-truth labels.
func gradeDecisions(decisions []ms.Decision, txns []txn.Transaction) (grade, error) {
	if len(decisions) != len(txns) {
		return grade{}, fmt.Errorf("%d decisions for %d transactions", len(decisions), len(txns))
	}
	h := sha256.New()
	var buf [18]byte
	var tp, fn, fp, tn float64
	for i := range decisions {
		d := &decisions[i]
		if d.TxnID != txns[i].ID {
			return grade{}, fmt.Errorf("decision %d answers transaction %d, want %d", i, d.TxnID, txns[i].ID)
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(d.TxnID))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(d.Score))
		buf[16] = 0
		if d.Fraud {
			buf[16] = 1
		}
		buf[17] = byte(d.Action)
		h.Write(buf[:])
		h.Write([]byte(d.Reason))
		h.Write([]byte{0})
		switch {
		case txns[i].Fraud && d.Fraud:
			tp++
		case txns[i].Fraud:
			fn++
		case d.Fraud:
			fp++
		default:
			tn++
		}
	}
	g := grade{digest: hex.EncodeToString(h.Sum(nil)[:8])}
	if tp+fn > 0 {
		g.recall = tp / (tp + fn)
	}
	if fp+tn > 0 {
		g.fpr = fp / (fp + tn)
	}
	return g, nil
}

// reference grades the parity set on a plain single engine — no cache,
// no shards, no wire, no log — over the full table and a warm window:
// the answer every topology must reproduce bitwise. Whatever it opens is
// released before it returns, so neither its set-up time nor its memory
// is charged to the workload.
func (fx *fixture) reference(ctx context.Context) (grade, error) {
	stages, mark, hadFull := fx.stages, len(fx.closers), fx.full != nil
	fx.stages = nil
	defer func() {
		fx.stages = stages
		fx.release(mark)
		if !hadFull {
			fx.full = nil
		}
	}()
	tab, err := fx.fullTable()
	if err != nil {
		return grade{}, err
	}
	srv, err := ms.New(tab, fx.bundle, fx.engineOpts(fx.warmStore(), 0)...)
	if err != nil {
		return grade{}, err
	}
	fx.closers = append(fx.closers, srv.Close)
	decisions, err := srv.DecideBatch(ctx, fx.parity, nil)
	if err != nil {
		return grade{}, fmt.Errorf("reference engine: %w", err)
	}
	return gradeDecisions(decisions, fx.parity)
}

// parityPass sends the parity set through the workload's own path in
// calls of the workload's batch size.
func parityPass(ctx context.Context, tgt *target, txns []txn.Transaction, batch int) (grade, error) {
	all := make([]ms.Decision, 0, len(txns))
	for lo := 0; lo < len(txns); lo += batch {
		part := txns[lo:min(lo+batch, len(txns))]
		ds, err := tgt.decide(ctx, part)
		if err != nil {
			return grade{}, err
		}
		all = append(all, ds...)
	}
	return gradeDecisions(all, txns)
}
