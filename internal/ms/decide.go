package ms

import (
	"context"
	"fmt"
	"sort"
	"time"

	"titant/internal/decision"
	"titant/internal/telemetry"
	"titant/internal/txn"
)

// Decision is one transaction's decisioning outcome: the scoring verdict
// the model produced, and the action the policy mapped it to. Reason
// attributes the action to the band or rule that decided it;
// RuleOverride marks decisions where a rule predicate overrode the
// model's bands outright.
type Decision struct {
	Verdict
	Scenario      decision.Scenario `json:"scenario"`
	Action        decision.Action   `json:"action"`
	Reason        string            `json:"reason"`
	RuleOverride  bool              `json:"rule_override,omitempty"`
	PolicyVersion string            `json:"policy_version"`
}

// currentPolicy reads the active policy (nil when decisioning is off).
func (s *Server) currentPolicy() *decision.Policy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.policy
}

// PolicyEnabled reports whether the engine carries a decision policy.
func (s *Server) PolicyEnabled() bool { return s.currentPolicy() != nil }

// PolicyVersion returns the active policy's version ("" when disabled).
func (s *Server) PolicyVersion() string {
	if p := s.currentPolicy(); p != nil {
		return p.Version
	}
	return ""
}

// SetPolicy hot-swaps the decision policy, mirroring SetBundle: the new
// document is validated (and compiled) before publication, so a bad
// policy is rejected whole and the previous one keeps serving. Swapping
// a policy does not disturb scores, drift baselines or shadow state —
// only the score→action mapping changes.
//
// SetPolicy replaces, it does not enable: an engine deliberately built
// without WithPolicy refuses with ErrPolicyDisabled, so a client that
// can reach POST /v1/policy cannot turn decisioning on behind the
// operator's back.
func (s *Server) SetPolicy(p *decision.Policy) error {
	if !s.policyConfigured {
		return ErrPolicyDisabled
	}
	if p == nil {
		return ErrPolicyDisabled
	}
	if err := p.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	s.policy = p
	s.mu.Unlock()
	return nil
}

// PolicyInfo summarises the active policy (GET /v1/policy responses and
// POST acknowledgements).
type PolicyInfo struct {
	Version   string   `json:"version"`
	Scenarios []string `json:"scenarios"`
	Rules     int      `json:"rules"`
}

// PolicyInfo returns the active policy's summary (zero value when
// decisioning is disabled).
func (s *Server) PolicyInfo() PolicyInfo {
	p := s.currentPolicy()
	if p == nil {
		return PolicyInfo{}
	}
	info := PolicyInfo{Version: p.Version}
	for name, sp := range p.Scenarios {
		info.Scenarios = append(info.Scenarios, name)
		info.Rules += len(sp.Rules)
	}
	sort.Strings(info.Scenarios)
	return info
}

// Decide scores one transaction and maps the result through the active
// policy: rules first (velocity caps and other hard constraints can
// override the model), then the scenario's combined-score band,
// escalated by member bands. It shares Score's single-row core, so a
// Decide and a Score of the same transaction see bitwise-identical
// scores. Returns ErrPolicyDisabled on an engine built without
// WithPolicy.
func (s *Server) Decide(ctx context.Context, t *txn.Transaction, sc decision.Scenario) (Decision, error) {
	pol := s.currentPolicy()
	if pol == nil {
		return Decision{}, ErrPolicyDisabled
	}
	start := time.Now()
	var spans telemetry.Spans
	release, err := s.Admit(ctx, 1)
	if err != nil {
		return Decision{}, err
	}
	defer release()
	spans[telemetry.StageAdmit] = time.Since(start)
	var d Decision
	var epoch int64
	if err := s.runOne(ctx, t, &spans, func(sb *scoredBatch) error {
		decideStart := time.Now()
		s.fillDecision(&d, pol, t, sc, sb)
		spans[telemetry.StageDecide] = time.Since(decideStart)
		d.Latency = sb.perItem
		epoch = sb.shadowEpoch
		return nil
	}); err != nil {
		return Decision{}, err
	}
	shadowStart := time.Now()
	s.observeDecision(t, &d, epoch)
	spans[telemetry.StageShadow] = time.Since(shadowStart)
	s.traceObserve(ctx, s.telDecide, time.Since(start), &spans)
	return d, nil
}

// DecideBatch decides a batch in input order over the same pooled
// batch-native core as ScoreBatch — dedup fetch, one matrix assembly,
// one vectorised ensemble pass — followed by an allocation-free policy
// evaluation per row, so decisioning adds model-free work only.
// scenarios selects each transaction's scenario, index-aligned with
// txns; nil decides the whole batch under the default scenario.
func (s *Server) DecideBatch(ctx context.Context, txns []txn.Transaction, scenarios []decision.Scenario) ([]Decision, error) {
	pol := s.currentPolicy()
	if pol == nil {
		return nil, ErrPolicyDisabled
	}
	if scenarios != nil && len(scenarios) != len(txns) {
		return nil, fmt.Errorf("ms: %d scenarios for %d transactions", len(scenarios), len(txns))
	}
	if len(txns) == 0 {
		return nil, nil
	}
	start := time.Now()
	var spans telemetry.Spans
	release, err := s.Admit(ctx, len(txns))
	if err != nil {
		return nil, err
	}
	defer release()
	spans[telemetry.StageAdmit] = time.Since(start)
	var decisions []Decision
	var epoch int64
	if err := s.runBatch(ctx, txns, &spans, func(sb *scoredBatch) error {
		decideStart := time.Now()
		decisions = make([]Decision, len(txns))
		members := sb.memberBacking(len(txns))
		epoch = sb.shadowEpoch
		in := s.inputTemplate(sb)
		for i := range txns {
			if scenarios != nil {
				in.Scenario = scenarios[i]
			}
			in.Txn = &txns[i]
			in.Score = sb.combined[i]
			in.Row = i
			d := &decisions[i]
			d.Verdict = sb.verdict(&txns[i], i, members)
			d.Latency = sb.perItem
			applyOutcome(d, pol, in.Scenario, pol.Decide(&in))
		}
		spans[telemetry.StageDecide] = time.Since(decideStart)
		return nil
	}); err != nil {
		return nil, err
	}
	shadowStart := time.Now()
	for i := range decisions {
		s.observeDecision(&txns[i], &decisions[i], epoch)
	}
	spans[telemetry.StageShadow] = time.Since(shadowStart)
	s.traceObserve(ctx, s.telDecideBatch, time.Since(start), &spans)
	return decisions, nil
}

// inputTemplate seeds the per-batch decision input with the fields that
// don't vary across rows. A v1 single-model bundle has no per-member
// breakdown — its only score is the combined one — so member bands stay
// inert (nil names).
func (s *Server) inputTemplate(sb *scoredBatch) decision.Input {
	names := sb.ens.names
	if sb.memberScores == nil {
		names = nil
	}
	return decision.Input{
		MemberNames:  names,
		MemberScores: sb.memberScores,
		Velocity:     s.velocity,
	}
}

// fillDecision evaluates the policy for the one row of a single-
// transaction scoring pass into d.
func (s *Server) fillDecision(d *Decision, pol *decision.Policy, t *txn.Transaction, sc decision.Scenario, sb *scoredBatch) {
	in := s.inputTemplate(sb)
	in.Txn, in.Scenario, in.Score, in.Row = t, sc, sb.combined[0], 0
	d.Verdict = sb.verdict(t, 0, sb.memberBacking(1))
	applyOutcome(d, pol, sc, pol.Decide(&in))
}

// applyOutcome copies one policy outcome into a decision.
func applyOutcome(d *Decision, pol *decision.Policy, sc decision.Scenario, out decision.Outcome) {
	d.Scenario = sc
	d.Action = out.Action
	d.Reason = out.Reason
	d.RuleOverride = out.Rule
	d.PolicyVersion = pol.Version
}

// observeDecision records the verdict through the shared scoring
// counters (latency histogram, alert, shadow enqueue) plus the
// decision-specific action counters. The decided total is the sum of
// the per-action counters, so it costs no counter of its own.
func (s *Server) observeDecision(t *txn.Transaction, d *Decision, epoch int64) {
	s.observe(t, &d.Verdict, epoch)
	s.actions[d.Action].Add(1)
	if d.RuleOverride {
		s.ruleHits.Add(1)
	}
}

// DriftStats snapshots every monitored score series (nil when drift
// monitoring is disabled).
func (s *Server) DriftStats() []decision.DriftStats {
	if mon := s.drift.Load(); mon != nil {
		return mon.Snapshot()
	}
	return nil
}

// DriftAlerted reports whether any score series currently crosses its
// drift alert thresholds.
func (s *Server) DriftAlerted() bool {
	if mon := s.drift.Load(); mon != nil {
		return mon.Alerted()
	}
	return false
}

// ShadowStats snapshots the champion/challenger comparison counters
// (zero without a challenger).
func (s *Server) ShadowStats() decision.ShadowStats {
	if s.shadow == nil {
		return decision.ShadowStats{}
	}
	return s.shadow.meter.Snapshot()
}
