package ms

import (
	"context"
	"sort"

	"titant/internal/decision"
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
	return s.one(ctx, t, true, sc)
}

// DecideBatch decides a batch in input order over the same pooled
// batch-native core as ScoreBatch — dedup fetch, one matrix assembly,
// one vectorised ensemble pass — followed by an allocation-free policy
// evaluation per row, so decisioning adds model-free work only.
// scenarios selects each transaction's scenario, index-aligned with
// txns; nil decides the whole batch under the default scenario.
func (s *Server) DecideBatch(ctx context.Context, txns []txn.Transaction, scenarios []decision.Scenario) ([]Decision, error) {
	var dst results
	if err := s.batch(ctx, txns, true, scenarios, &dst); err != nil {
		return nil, err
	}
	return dst.decisions, nil
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
