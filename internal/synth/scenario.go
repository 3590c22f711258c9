// Scenario library: named attack patterns composed onto the base
// ring-fraud world.
//
// The base generator (synth.go) produces one workload shape — organised
// fraud rings scamming susceptible victims. Real fraud platforms are
// validated against a wider library of named attacks replayed at volume:
// account takeover (credential theft, device/IP churn, then a drain),
// merchant bust-out (a good history cashed in with a burst of inflated
// charges), mule chains (stolen funds hopped through fresh accounts), and
// card-testing bursts (many tiny probes validating stolen credentials).
//
// Compose layers any mix of these onto a generated world under the same
// seed: scenario traffic is derived from rng streams split off the world
// seed after the base generator's streams, so a composed world is exactly
// the base world plus deterministic scenario traffic — an empty mix
// returns the base world bit-for-bit, and the same (seed, mix) always
// yields the same log. Every incident emits labeled ground truth (its
// fraudulent transactions carry Fraud=true) and a machine-readable
// manifest entry: the scenario kind, the accounts involved, the
// activation window, and the exact transaction IDs of its fraud — which
// is what turns "catches fraud" into per-scenario recall/precision
// numbers a load harness or CI gate can assert.
package synth

import (
	"encoding/json"
	"fmt"
	"math"

	"titant/internal/rng"
	"titant/internal/txn"
)

// Scenario kind names used in manifests and reports.
const (
	KindRing        = "ring"
	KindATO         = "account_takeover"
	KindBustOut     = "bust_out"
	KindMuleChain   = "mule_chain"
	KindCardTesting = "card_testing"
)

// ScenarioKinds lists every kind a composed world can contain, in
// manifest order.
var ScenarioKinds = []string{KindRing, KindATO, KindBustOut, KindMuleChain, KindCardTesting}

// ScenarioMix selects how many incidents of each attack pattern Compose
// layers onto the base world. The zero mix composes nothing (the returned
// world is the base world unchanged, with ring manifests only).
type ScenarioMix struct {
	ATO         int // account-takeover incidents
	BustOut     int // merchant bust-out incidents
	MuleChains  int // mule-chain incidents
	CardTesting int // card-testing bursts
}

// DefaultScenarioMix is the composed world used by the detection-quality
// gate and the load harness: enough incidents of every kind that both the
// training window and the final test week see each pattern.
func DefaultScenarioMix() ScenarioMix {
	return ScenarioMix{ATO: 8, BustOut: 4, MuleChains: 6, CardTesting: 5}
}

func (m ScenarioMix) total() int { return m.ATO + m.BustOut + m.MuleChains + m.CardTesting }

// ScenarioManifest is the machine-readable ground truth of one incident:
// which attack pattern ran, which accounts were attacker-side, when it
// was active, and exactly which transactions were fraudulent. Load
// harnesses score replayed traffic and join verdicts against FraudTxns to
// compute per-scenario recall; anything flagged outside every manifest's
// FraudTxns is a false positive.
type ScenarioManifest struct {
	Kind     string  `json:"kind"`
	ID       int     `json:"id"`
	StartDay txn.Day `json:"start_day"`
	EndDay   txn.Day `json:"end_day"` // exclusive

	// Users are the attacker-side accounts: ring members and mules,
	// the ATO victim and its drain mules, the bust-out merchant, the
	// mule-chain hop accounts, the card-testing receiver.
	Users []txn.UserID `json:"users"`

	// FraudTxns are the transaction IDs of this incident's labeled fraud.
	FraudTxns []txn.TxnID `json:"fraud_txns"`

	// DecisionScenario is the decision-plane scenario this attack arrives
	// under (see internal/decision): drains and chain hops are transfers,
	// bust-out charges and card tests are payments. Load generators tag
	// /v1/decide traffic with it.
	DecisionScenario string `json:"decision_scenario"`
}

// Manifest describes a composed world: the generating seed and the
// per-incident ground truth. It is emitted next to load reports so a run
// is reproducible from the manifest alone.
type Manifest struct {
	Seed      uint64             `json:"seed"`
	Users     int                `json:"users"`
	Days      int                `json:"days"`
	Scenarios []ScenarioManifest `json:"scenarios"`
}

// Encode renders the manifest as indented JSON.
func (m *Manifest) Encode() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// DecodeManifest parses an encoded manifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("synth: decode manifest: %w", err)
	}
	return &m, nil
}

// FraudByTxn inverts the manifest: transaction ID → scenario kind, the
// lookup a harness joins verdicts against.
func (m *Manifest) FraudByTxn() map[txn.TxnID]string {
	idx := make(map[txn.TxnID]string)
	for i := range m.Scenarios {
		s := &m.Scenarios[i]
		for _, id := range s.FraudTxns {
			idx[id] = s.Kind
		}
	}
	return idx
}

// Compose generates the base world for cfg and layers mix's attack
// scenarios onto it. The scenario generators draw from rng streams split
// off the same seed after the base generator's streams, so composition is
// deterministic and purely additive: Compose(cfg, ScenarioMix{}) returns
// a world whose log is bit-for-bit the base Generate(cfg) log. The
// returned manifest always carries the base world's fraud rings (kind
// "ring") plus one entry per composed incident.
func Compose(cfg Config, mix ScenarioMix) (*World, *Manifest) {
	w := Generate(cfg)
	man := &Manifest{Seed: w.Config.Seed, Users: w.Config.Users, Days: w.Config.Days}
	man.Scenarios = append(man.Scenarios, ringManifests(w)...)
	if mix.total() == 0 {
		return w, man
	}
	// Split ids 1..5 are taken by the base generator; scenarios get 6.
	// Split does not advance the parent stream, so this is the stream the
	// base generator would have derived next.
	root := rng.New(w.Config.Seed).Split(6)
	c := &composer{
		w:      w,
		nextID: txn.TxnID(len(w.Log)),
		used:   make(map[txn.UserID]bool),
	}
	// Accounts already owned by the base world's rings stay off-limits so
	// scenario ground truth never overlaps ring ground truth.
	for i := range w.Users {
		if w.Users[i].RingID >= 0 {
			c.used[w.Users[i].ID] = true
		}
	}
	id := len(man.Scenarios)
	for i := 0; i < mix.ATO; i++ {
		man.Scenarios = append(man.Scenarios, c.ato(root.Split(uint64(100+i)), id, i, mix.ATO))
		id++
	}
	for i := 0; i < mix.BustOut; i++ {
		man.Scenarios = append(man.Scenarios, c.bustOut(root.Split(uint64(200+i)), id, i, mix.BustOut))
		id++
	}
	for i := 0; i < mix.MuleChains; i++ {
		man.Scenarios = append(man.Scenarios, c.muleChain(root.Split(uint64(300+i)), id, i, mix.MuleChains))
		id++
	}
	for i := 0; i < mix.CardTesting; i++ {
		man.Scenarios = append(man.Scenarios, c.cardTesting(root.Split(uint64(400+i)), id, i, mix.CardTesting))
		id++
	}
	// Re-establish the stream order invariant the slicer depends on.
	sortLog(w.Log)
	return w, man
}

// ringManifests derives manifest entries for the base world's fraud
// rings, so ring ground truth flows through the same machine-readable
// format as the composed scenarios (one generator, one truth source).
func ringManifests(w *World) []ScenarioManifest {
	memberRing := make(map[txn.UserID]int, 64)
	out := make([]ScenarioManifest, len(w.Rings))
	for i := range w.Rings {
		r := &w.Rings[i]
		out[i] = ScenarioManifest{
			Kind: KindRing, ID: i,
			StartDay: r.StartDay, EndDay: r.EndDay,
			Users:            append(append([]txn.UserID{}, r.Members...), r.Mules...),
			DecisionScenario: "transfer",
		}
		for _, m := range r.Members {
			memberRing[m] = i
		}
	}
	for _, t := range w.Log {
		if t.Fraud {
			if ri, ok := memberRing[t.To]; ok {
				out[ri].FraudTxns = append(out[ri].FraudTxns, t.ID)
			}
		}
	}
	return out
}

// composer holds the state shared by the incident generators.
type composer struct {
	w      *World
	nextID txn.TxnID
	used   map[txn.UserID]bool
}

func (c *composer) next() txn.TxnID { id := c.nextID; c.nextID++; return id }

// window stripes incident i of n across the labeled span — training days
// through the final test week — with small jitter, so any mix with a few
// incidents per kind covers both the training window (the model learns
// the pattern) and the test week (the gate can measure recall on it).
func (c *composer) window(r *rng.RNG, i, n, span int) (txn.Day, txn.Day) {
	days := txn.Day(c.w.Config.Days)
	lo := txn.Day(txn.NetworkDays) // first training day
	width := int(days) - span - int(lo)
	if width < 1 {
		width = 1
	}
	start := lo + txn.Day(i*width/n) + txn.Day(r.Intn(3))
	if start >= days-txn.Day(span) {
		start = days - txn.Day(span)
	}
	end := start + txn.Day(span)
	if end > days {
		end = days
	}
	return start, end
}

// freshAccount claims an unused honest account and rewrites it as a
// young attacker-controlled profile: a throwaway with minimal KYC, the
// receiver-profile signal every drain and burst carries.
func (c *composer) freshAccount(r *rng.RNG) txn.UserID {
	id := c.claim(r, func(u *txn.User) bool { return !u.IsFraudster })
	u := &c.w.Users[id]
	u.IsFraudster = true
	u.AccountAge = txn.AccountAgeDays(r.Intn(90))
	u.KYCLevel = uint8(r.Intn(2))
	u.DeviceCount = uint8(1 + r.Intn(2))
	u.MerchantFlag = false
	return id
}

// claim finds an unused account satisfying ok and marks it used.
func (c *composer) claim(r *rng.RNG, ok func(*txn.User) bool) txn.UserID {
	n := c.w.Config.Users
	for {
		id := txn.UserID(r.Intn(n))
		if c.used[id] {
			continue
		}
		if ok != nil && !ok(&c.w.Users[id]) {
			continue
		}
		c.used[id] = true
		return id
	}
}

// victim draws an honest account for the "From" side of an attack
// transaction without claiming it (victims stay in the honest pool).
func (c *composer) victim(r *rng.RNG) txn.UserID {
	n := c.w.Config.Users
	for {
		id := txn.UserID(r.Intn(n))
		if !c.w.Users[id].IsFraudster && !c.used[id] {
			return id
		}
	}
}

// emit appends one scenario transaction, labels it, and records it in
// the manifest when fraudulent.
func (c *composer) emit(m *ScenarioManifest, t txn.Transaction) {
	t.ID = c.next()
	c.w.Log = append(c.w.Log, t)
	if t.Fraud {
		m.FraudTxns = append(m.FraudTxns, t.ID)
	}
}

// nightSec draws a night-skewed (p) or daytime second of day.
func nightSec(r *rng.RNG, p float64) int32 {
	if r.Bool(p) {
		return int32(r.Intn(6 * 3600))
	}
	return int32(8*3600 + r.Intn(15*3600))
}

// ato is an account takeover: a mature honest account is compromised,
// probed from a new device and proxied IPs in foreign cities, then
// drained into fresh mule accounts with transfers far above the victim's
// historical amounts. Probes and drains are both reported fraud — the
// victim reports the whole episode.
func (c *composer) ato(r *rng.RNG, id, i, n int) ScenarioManifest {
	w := c.w
	victim := c.claim(r, func(u *txn.User) bool {
		return !u.IsFraudster && u.AccountAge > 365 && !u.MerchantFlag
	})
	mules := []txn.UserID{c.freshAccount(r), c.freshAccount(r)}
	start, end := c.window(r, i, n, 3)
	m := ScenarioManifest{
		Kind: KindATO, ID: id, StartDay: start, EndDay: end,
		Users:            append([]txn.UserID{victim}, mules...),
		DecisionScenario: "transfer",
	}
	vu := &w.Users[victim]
	farCity := uint16(r.Intn(w.Config.Cities))
	for farCity == vu.HomeCity {
		farCity = uint16(r.Intn(w.Config.Cities))
	}
	// Churn phase: small probe transfers validating the stolen session.
	nProbes := 2 + r.Intn(3)
	for p := 0; p < nProbes; p++ {
		c.emit(&m, txn.Transaction{
			Day: start, Sec: nightSec(r, 0.6),
			From: victim, To: mules[r.Intn(len(mules))],
			Amount:     float32(1 + r.Intn(20)),
			TransCity:  farCity,
			DeviceRisk: float32(0.5 + 0.45*r.Float64()),
			IPRisk:     float32(0.5 + 0.5*r.Float64()),
			Channel:    txn.ChannelBalance,
			Fraud:      true,
		})
	}
	// Drain phase: a handful of large transfers over the next days.
	nDrains := 3 + r.Intn(4)
	for d := 0; d < nDrains; d++ {
		day := start + txn.Day(1+r.Intn(int(end-start-1)+1))
		if day >= end {
			day = end - 1
		}
		amt := float64(vu.AvgAmount) * (8 + 30*r.Float64())
		if r.Bool(0.4) {
			amt = math.Round(amt/100) * 100
		}
		ch := txn.ChannelBalance
		if r.Bool(0.4) {
			ch = txn.ChannelBankCard
		}
		c.emit(&m, txn.Transaction{
			Day: day, Sec: nightSec(r, 0.6),
			From: victim, To: mules[r.Intn(len(mules))],
			Amount:     float32(amt),
			TransCity:  farCity,
			DeviceRisk: float32(0.4 + 0.55*r.Float64()),
			IPRisk:     float32(0.4 + 0.6*r.Float64()),
			Channel:    ch,
			Fraud:      true,
		})
	}
	return m
}

// bustOut is a merchant bust-out: a merchant account accumulates a few
// days of clean-looking build-up payments, then cashes out with a burst
// of inflated charges and disappears. Only the burst is reported fraud.
func (c *composer) bustOut(r *rng.RNG, id, i, n int) ScenarioManifest {
	w := c.w
	merchant := c.freshAccount(r)
	w.Users[merchant].MerchantFlag = true
	buildDays := 3 + r.Intn(3)
	start, end := c.window(r, i, n, buildDays+2)
	burst := end - 2
	m := ScenarioManifest{
		Kind: KindBustOut, ID: id, StartDay: start, EndDay: end,
		Users:            []txn.UserID{merchant},
		DecisionScenario: "payment",
	}
	// Build-up: unlabeled ordinary-looking payments into the merchant.
	for day := start; day < burst; day++ {
		for k := 0; k < 2+r.Intn(3); k++ {
			payer := c.victim(r)
			c.emit(&m, txn.Transaction{
				Day: day, Sec: nightSec(r, 0.1),
				From: payer, To: merchant,
				Amount:     float32(math.Exp(r.NormFloat64()*0.6 + 4.2)),
				TransCity:  w.Users[payer].HomeCity,
				DeviceRisk: float32(0.1 * r.Float64()),
				IPRisk:     float32(0.1 * r.Float64()),
				Channel:    txn.ChannelCredit,
				Fraud:      false,
			})
		}
	}
	// Burst: inflated charges, many per day, credit-channel skew.
	nCharges := 15 + r.Intn(26)
	for k := 0; k < nCharges; k++ {
		day := burst + txn.Day(r.Intn(2))
		payer := c.victim(r)
		pu := &w.Users[payer]
		amt := float64(pu.AvgAmount) * (4 + 8*r.Float64())
		if r.Bool(0.5) {
			amt = math.Round(amt/100) * 100
			if amt < 100 {
				amt = 100
			}
		}
		ch := txn.ChannelCredit
		if r.Bool(0.3) {
			ch = txn.ChannelBankCard
		}
		c.emit(&m, txn.Transaction{
			Day: day, Sec: nightSec(r, 0.3),
			From: payer, To: merchant,
			Amount:     float32(amt),
			TransCity:  pu.HomeCity,
			DeviceRisk: float32(0.2 + 0.5*r.Float64()),
			IPRisk:     float32(0.3 + 0.6*r.Float64()),
			Channel:    ch,
			Fraud:      true,
		})
	}
	return m
}

// muleChain hops stolen funds through a chain of fresh accounts: an
// origin scam lands on the first hop, then the money forwards hop to hop
// within hours, each hop slightly smaller (the mule's cut). Every link
// is reported fraud once the origin is.
func (c *composer) muleChain(r *rng.RNG, id, i, n int) ScenarioManifest {
	w := c.w
	hops := 3 + r.Intn(2)
	chain := make([]txn.UserID, hops)
	for h := range chain {
		chain[h] = c.freshAccount(r)
	}
	start, end := c.window(r, i, n, 4)
	m := ScenarioManifest{
		Kind: KindMuleChain, ID: id, StartDay: start, EndDay: end,
		Users:            append([]txn.UserID{}, chain...),
		DecisionScenario: "transfer",
	}
	opCity := uint16(r.Intn(w.Config.Cities))
	rounds := 2 + r.Intn(3)
	for k := 0; k < rounds; k++ {
		day := start + txn.Day(r.Intn(int(end-start)))
		victim := c.victim(r)
		amt := math.Exp(r.NormFloat64()*0.6 + 6.8)
		sec := int32(10*3600 + r.Intn(10*3600))
		// Origin scam into the head of the chain.
		c.emit(&m, txn.Transaction{
			Day: day, Sec: sec,
			From: victim, To: chain[0],
			Amount:     float32(amt),
			TransCity:  opCity,
			DeviceRisk: float32(0.2 + 0.5*r.Float64()),
			IPRisk:     float32(0.3 + 0.7*r.Float64()),
			Channel:    txn.ChannelBankCard,
			Fraud:      true,
		})
		// Rapid forwarding hops, minutes to an hour apart.
		for h := 1; h < hops; h++ {
			sec += int32(300 + r.Intn(3300))
			if sec >= 24*3600 {
				sec = 24*3600 - 1
			}
			amt *= 0.9 + 0.05*r.Float64()
			c.emit(&m, txn.Transaction{
				Day: day, Sec: sec,
				From: chain[h-1], To: chain[h],
				Amount:     float32(amt),
				TransCity:  opCity,
				DeviceRisk: float32(0.3 + 0.5*r.Float64()),
				IPRisk:     float32(0.3 + 0.6*r.Float64()),
				Channel:    txn.ChannelBalance,
				Fraud:      true,
			})
		}
	}
	return m
}

// cardTesting is a card-testing burst: one fresh receiver account
// absorbs dozens of tiny probes charged to stolen cards within minutes,
// all through proxied sessions on one device. Every probe is fraud.
func (c *composer) cardTesting(r *rng.RNG, id, i, n int) ScenarioManifest {
	w := c.w
	attacker := c.freshAccount(r)
	start, end := c.window(r, i, n, 1)
	m := ScenarioManifest{
		Kind: KindCardTesting, ID: id, StartDay: start, EndDay: end,
		Users:            []txn.UserID{attacker},
		DecisionScenario: "payment",
	}
	city := uint16(r.Intn(w.Config.Cities))
	deviceRisk := float32(0.4 + 0.4*r.Float64()) // one device, one session
	sec := int32(r.Intn(20 * 3600))
	nProbes := 25 + r.Intn(36)
	for k := 0; k < nProbes; k++ {
		sec += int32(5 + r.Intn(36))
		if sec >= 24*3600 {
			sec = 24*3600 - 1
		}
		c.emit(&m, txn.Transaction{
			Day: start, Sec: sec,
			From: c.victim(r), To: attacker,
			Amount:     float32(1 + r.Intn(9)),
			TransCity:  city,
			DeviceRisk: deviceRisk,
			IPRisk:     float32(0.5 + 0.5*r.Float64()),
			Channel:    txn.ChannelBankCard,
			Fraud:      true,
		})
	}
	return m
}
