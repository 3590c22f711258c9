// Package decision turns TitAnt's fraud scores into online risk
// decisions. The paper's Model Server stops at a fraud probability and a
// single frozen threshold; production risk control layers three more
// pieces on top, and this package implements all of them:
//
//   - a policy engine: versioned policy documents with per-scenario
//     (payment / transfer / withdrawal / default) threshold bands mapping
//     the combined ensemble score — and optionally individual members'
//     scores — to approve / challenge / deny actions, plus small rule
//     predicates over transaction fields and streaming velocity
//     aggregates that can override the model outright. Policies are
//     parsed and validated once; Decide evaluates the compiled form
//     allocation-free on the hot path.
//
//   - a drift monitor (drift.go): fixed-bin score histograms per ensemble
//     member with PSI and KS statistics against a baseline frozen at
//     bundle deploy, so a stale model announces itself before precision
//     collapses.
//
//   - a shadow meter (shadow.go): rolling champion/challenger agreement,
//     divergence and would-have-flipped counters for a challenger bundle
//     scored asynchronously off the hot path (the queue and worker live
//     in the serving engine; the comparison arithmetic lives here).
//
// The package depends only on txn and the tiny VelocitySource read
// surface, so the serving engine, offline evaluation and tests all
// consume the same decision semantics.
package decision

import (
	"fmt"

	"titant/internal/txn"
)

// Action is a risk decision: let the transfer pass, step up verification
// (the paper's "interrupt and notify the transferor"), or block it.
type Action uint8

// Actions, in severity order: policy evaluation resolves conflicting
// verdicts (a combined-score band versus a member band) by taking the
// most severe.
const (
	ActionApprove Action = iota
	ActionChallenge
	ActionDeny
	numActions
)

// NumActions is the number of decision actions.
const NumActions = int(numActions)

func (a Action) String() string {
	switch a {
	case ActionApprove:
		return "approve"
	case ActionChallenge:
		return "challenge"
	case ActionDeny:
		return "deny"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// actionOf maps a wire name to its Action. It builds no error, so a
// caller holding bytes can pass string(b) without the conversion
// escaping to the heap.
func actionOf(s string) (Action, bool) {
	switch s {
	case "approve":
		return ActionApprove, true
	case "challenge":
		return ActionChallenge, true
	case "deny":
		return ActionDeny, true
	}
	return 0, false
}

// ParseAction maps the wire names back to Action values.
func ParseAction(s string) (Action, error) {
	a, ok := actionOf(s)
	if !ok {
		return 0, fmt.Errorf("%w: unknown action %q (want approve, challenge or deny)", ErrPolicyInvalid, s)
	}
	return a, nil
}

// MarshalText renders the action as its wire name.
func (a Action) MarshalText() ([]byte, error) {
	if a >= numActions {
		return nil, fmt.Errorf("%w: action %d", ErrPolicyInvalid, int(a))
	}
	return []byte(a.String()), nil
}

// UnmarshalText parses the wire name; the success path does not
// allocate.
func (a *Action) UnmarshalText(b []byte) error {
	v, ok := actionOf(string(b))
	if !ok {
		_, err := ParseAction(string(b))
		return err
	}
	*a = v
	return nil
}

// Scenario selects which per-scenario policy applies to a transaction.
// The paper evaluates TitAnt on the transfer scenario but deploys it
// across Ant's payment products, each with its own risk appetite; the
// scenario travels with the decision request, and a policy that does not
// configure a scenario serves its default.
type Scenario uint8

// Scenarios of the v1 decision API.
const (
	ScenarioDefault Scenario = iota
	ScenarioPayment
	ScenarioTransfer
	ScenarioWithdrawal
	numScenarios
)

// NumScenarios is the number of decision scenarios.
const NumScenarios = int(numScenarios)

func (sc Scenario) String() string {
	switch sc {
	case ScenarioDefault:
		return "default"
	case ScenarioPayment:
		return "payment"
	case ScenarioTransfer:
		return "transfer"
	case ScenarioWithdrawal:
		return "withdrawal"
	}
	return fmt.Sprintf("Scenario(%d)", int(sc))
}

// ParseScenario maps a wire name to a Scenario; the empty string reads as
// the default scenario so callers that don't care don't have to say so.
func ParseScenario(s string) (Scenario, error) {
	sc, ok := scenarioOf(s)
	if !ok {
		return 0, fmt.Errorf("%w: unknown scenario %q (want default, payment, transfer or withdrawal)", ErrPolicyInvalid, s)
	}
	return sc, nil
}

// scenarioOf is actionOf's counterpart for scenarios.
func scenarioOf(s string) (Scenario, bool) {
	switch s {
	case "", "default":
		return ScenarioDefault, true
	case "payment":
		return ScenarioPayment, true
	case "transfer":
		return ScenarioTransfer, true
	case "withdrawal":
		return ScenarioWithdrawal, true
	}
	return 0, false
}

// MarshalText renders the scenario as its wire name.
func (sc Scenario) MarshalText() ([]byte, error) {
	if sc >= numScenarios {
		return nil, fmt.Errorf("%w: scenario %d", ErrPolicyInvalid, int(sc))
	}
	return []byte(sc.String()), nil
}

// UnmarshalText parses the wire name; the success path does not
// allocate.
func (sc *Scenario) UnmarshalText(b []byte) error {
	v, ok := scenarioOf(string(b))
	if !ok {
		_, err := ParseScenario(string(b))
		return err
	}
	*sc = v
	return nil
}

// VelocitySource is the streaming-aggregate read surface rule predicates
// consume: in-window transfer velocity per user and the pairwise prior,
// both allocation-free reads. internal/feature/stream.Store satisfies it.
// Decisions evaluated with a nil source simply cannot fire velocity
// rules; everything else is unaffected.
type VelocitySource interface {
	// Velocity sums user u's in-window transfer counts and amounts.
	Velocity(u txn.UserID) (outCount, outAmount, inCount, inAmount float64)
	// PairPrior returns how many times from transferred to to in-window.
	PairPrior(from, to txn.UserID) float64
}

// Input is one transaction's decision context: the scored transaction,
// the scenario, the ensemble's combined and per-member scores (the member
// columns are row-major score slices shared with the serving engine's
// batch scratch, indexed by Row), and the optional velocity surface.
type Input struct {
	Txn      *txn.Transaction
	Scenario Scenario
	Score    float64 // combined ensemble score

	// MemberNames and MemberScores expose the per-member breakdown of an
	// ensemble bundle: MemberScores[k][Row] is member MemberNames[k]'s
	// score for this transaction. Both are nil for single-model bundles.
	MemberNames  []string
	MemberScores [][]float64
	Row          int

	Velocity VelocitySource // nil: velocity rule predicates cannot fire
}

// Outcome is a policy evaluation result. Reason is a precomputed
// human-readable attribution (band or rule) — no formatting happens on
// the hot path. Rule reports whether a rule predicate overrode the model
// bands.
type Outcome struct {
	Action Action
	Reason string
	Rule   bool
}
