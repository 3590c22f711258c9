// Package synth generates the synthetic transaction workload that stands in
// for Ant Financial's proprietary data (the §5.1 datasets row of
// docs/ARCHITECTURE.md's package map).
//
// The generator reproduces the three statistical properties the paper's
// analysis rests on:
//
//  1. Labels are heavily unbalanced (~1-2% fraud).
//  2. Fraudsters are repeat offenders organised in rings: ~70% of fraudsters
//     defraud more than once, victims of the same fraudster become 2-hop
//     neighbours (the paper's Figure 2 "gathering behaviour"), and ring
//     members plus mule accounts form dense subgraphs that network
//     representation learning can pick out.
//  3. The fraud signal in the 52 basic features is partly non-linear
//     (conjunctions of individually weak conditions), so tree ensembles
//     beat linear models, and partly topological (ring membership), so
//     node embeddings add information on top of the basic features.
//
// Everything is driven by a single seed through rng.RNG, so a generated
// world is perfectly reproducible.
package synth

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"titant/internal/rng"
	"titant/internal/txn"
)

// Config controls the generated world. Zero values are replaced by the
// defaults of DefaultConfig.
type Config struct {
	Seed  uint64
	Users int // population size
	Days  int // timeline length in days

	Communities    int     // latent social communities
	Cities         int     // number of cities
	TxnsPerUserDay float64 // mean normal transfers per user per day
	ContactsMean   int     // mean contact-list size

	FraudsterFrac      float64 // fraction of users who are fraudsters
	RingSizeMin        int     // fraudsters per ring, lower bound
	RingSizeMax        int     // fraudsters per ring, upper bound
	MulesPerRing       int     // mule accounts per ring
	RepeatOffenderFrac float64 // rings with long active periods (paper: ~70% of fraudsters repeat)
	ScamsPerDay        float64 // mean scams per active fraudster per day
	VictimRepeatProb   float64 // probability a defrauded victim is hit again
	ColdStartFrac      float64 // rings that first activate in the final week
	RingShufflesPerDay float64 // mean intra-ring transfers per active ring per day
	OneShotFrac        float64 // fraudsters who scam exactly once (paper: ~30%)
}

// DefaultConfig returns the laptop-scale default world: large enough for
// stable F1 estimates over a day, small enough that the full Table 1 run
// finishes in minutes on one core.
func DefaultConfig() Config {
	return Config{
		Seed:               1,
		Users:              6000,
		Days:               txn.TimelineDays,
		Communities:        24,
		Cities:             80,
		TxnsPerUserDay:     0.30,
		ContactsMean:       9,
		FraudsterFrac:      0.022,
		RingSizeMin:        3,
		RingSizeMax:        6,
		MulesPerRing:       3,
		RepeatOffenderFrac: 0.70,
		ScamsPerDay:        2.2,
		VictimRepeatProb:   0.20,
		ColdStartFrac:      0.25,
		RingShufflesPerDay: 4.0,
		OneShotFrac:        0.30,
	}
}

// TestConfig returns a tiny world for unit tests. The fraudster share is
// boosted so that even an 800-user world has fraud on every test day.
func TestConfig() Config {
	c := DefaultConfig()
	c.Users = 800
	c.Communities = 8
	c.Cities = 20
	c.FraudsterFrac = 0.025
	return c
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.Users == 0 {
		c.Users = d.Users
	}
	if c.Days == 0 {
		c.Days = d.Days
	}
	if c.Communities == 0 {
		c.Communities = d.Communities
	}
	if c.Cities == 0 {
		c.Cities = d.Cities
	}
	if c.TxnsPerUserDay == 0 {
		c.TxnsPerUserDay = d.TxnsPerUserDay
	}
	if c.ContactsMean == 0 {
		c.ContactsMean = d.ContactsMean
	}
	if c.FraudsterFrac == 0 {
		c.FraudsterFrac = d.FraudsterFrac
	}
	if c.RingSizeMin == 0 {
		c.RingSizeMin = d.RingSizeMin
	}
	if c.RingSizeMax == 0 {
		c.RingSizeMax = d.RingSizeMax
	}
	if c.MulesPerRing == 0 {
		c.MulesPerRing = d.MulesPerRing
	}
	if c.RepeatOffenderFrac == 0 {
		c.RepeatOffenderFrac = d.RepeatOffenderFrac
	}
	if c.ScamsPerDay == 0 {
		c.ScamsPerDay = d.ScamsPerDay
	}
	if c.VictimRepeatProb == 0 {
		c.VictimRepeatProb = d.VictimRepeatProb
	}
	if c.ColdStartFrac == 0 {
		c.ColdStartFrac = d.ColdStartFrac
	}
	if c.RingShufflesPerDay == 0 {
		c.RingShufflesPerDay = d.RingShufflesPerDay
	}
	if c.OneShotFrac == 0 {
		c.OneShotFrac = d.OneShotFrac
	}
}

// Ring is one fraud ring: a roster of fraudster accounts (rotated over the
// ring's lifetime as accounts are reported and locked), persistent mule
// accounts, an activity window, and a base city whose IP pool the ring
// operates from.
//
// Account churn is the load-bearing design choice here: the *ring* is
// long-lived (the human fraudsters repeat, per the paper's 70% statistic),
// but individual scam accounts live only until victim reports get them
// locked. This bounds how much a classifier can gain by memorising
// receiver profiles, exactly as in production.
type Ring struct {
	ID        int32
	Members   []txn.UserID // all fraudster accounts ever used by the ring
	Mules     []txn.UserID // money-mule accounts (persistent, not labeled)
	StartDay  txn.Day
	EndDay    txn.Day // exclusive
	BaseCity  uint16
	LongLived bool
}

// World is a fully generated environment: the population, the fraud rings,
// the per-city latent risk, and the day-ordered transaction log.
type World struct {
	Config Config
	Users  []txn.User
	Rings  []Ring
	// CityRisk is the latent fraud propensity of each city in [0,1]. It is
	// generator state; models must estimate city risk from data.
	CityRisk []float64
	Log      []txn.Transaction

	contacts [][]txn.UserID
	oneShot  map[txn.UserID]bool       // fraudsters limited to a single scam
	stints   map[txn.UserID][2]txn.Day // scam period of each fraud account
	warmFrom map[txn.UserID]txn.Day    // first day of ring warm-up activity
}

// Stint returns the scam period of a fraudster account.
func (w *World) Stint(u txn.UserID) (start, end txn.Day, ok bool) {
	s, ok := w.stints[u]
	return s[0], s[1], ok
}

// WarmFrom returns the day a fraud account began its unlabeled ring
// warm-up (shuffle) activity.
func (w *World) WarmFrom(u txn.UserID) (txn.Day, bool) {
	d, ok := w.warmFrom[u]
	return d, ok
}

// Generate builds a World from the configuration.
func Generate(cfg Config) *World {
	cfg.fillDefaults()
	if cfg.Users < 100 {
		panic(fmt.Sprintf("synth: need at least 100 users, got %d", cfg.Users))
	}
	w := &World{Config: cfg}
	root := rng.New(cfg.Seed)
	w.genCities(root.Split(1))
	w.genUsers(root.Split(2))
	w.genRings(root.Split(3))
	w.genContacts(root.Split(4))
	w.genLog(root.Split(5))
	return w
}

func (w *World) genCities(r *rng.RNG) {
	w.CityRisk = make([]float64, w.Config.Cities)
	for i := range w.CityRisk {
		// Cubing a uniform concentrates mass near zero: most cities are
		// safe, a handful are risky, matching the paper's observation that
		// "fraudulent rates in some specific locations are always higher".
		u := r.Float64()
		w.CityRisk[i] = u * u * u
	}
}

func (w *World) genUsers(r *rng.RNG) {
	n := w.Config.Users
	w.Users = make([]txn.User, n)
	cityZipf := rng.NewZipf(w.Config.Cities, 1.1)
	for i := range w.Users {
		u := &w.Users[i]
		u.ID = txn.UserID(i)
		u.Age = uint8(18 + r.Intn(60))
		u.Gender = txn.Gender(1 + r.Intn(2))
		u.HomeCity = uint16(cityZipf.Sample(r))
		// Account ages follow a mixture: most accounts are mature, a steady
		// stream of sign-ups keeps a fat young tail so "new account" alone
		// cannot identify fraudsters.
		if r.Bool(0.25) {
			u.AccountAge = txn.AccountAgeDays(r.Intn(6) * 30)
		} else {
			u.AccountAge = txn.AccountAgeDays((6 + r.Intn(94)) * 30)
		}
		u.DeviceCount = uint8(1 + r.Intn(3))
		u.KYCLevel = uint8(r.Intn(4))
		// Profile floats are quantised to coarse grids: real systems store
		// them as bucketed statistics, and at laptop scale fine-grained
		// values would act as user fingerprints that classifiers could
		// memorise.
		u.AvgDailyTxns = quantizeLog(math.Exp(r.NormFloat64()*0.8-1.4), 12)
		u.AvgAmount = quantizeLog(math.Exp(r.NormFloat64()*0.9+4.5), 24)
		u.MerchantFlag = r.Bool(0.05)
		u.RingID = -1
		u.ActivityScore = float32(0.2 + r.ExpFloat64())
	}
}

// quantizeLog snaps v onto a geometric grid with the given number of
// levels per decade-ish span, bounding profile cardinality.
func quantizeLog(v float64, levels float64) float32 {
	if v <= 0 {
		return 0
	}
	l := math.Log(v)
	return float32(math.Exp(math.Round(l*levels/4) * 4 / levels))
}

// susceptibility is the latent probability-weight that a user falls for a
// scam. It is deliberately a conjunction of weak conditions - low KYC AND a
// young or very old age band AND a young account - so that the inverse
// problem (detecting fraud from features) rewards models that capture
// feature interactions (GBDT) over additive ones (LR).
func susceptibility(u *txn.User) float64 {
	s := 0.15
	lowKYC := u.KYCLevel <= 1
	ageBand := u.Age < 24 || u.Age > 62
	youngAcct := u.AccountAge < 365
	fewDevices := u.DeviceCount <= 1
	if lowKYC && ageBand {
		s += 0.5
	}
	if lowKYC && youngAcct {
		s += 0.35
	}
	if ageBand && fewDevices {
		s += 0.2
	}
	if lowKYC {
		s += 0.1
	}
	return s
}

func (w *World) genRings(r *rng.RNG) {
	cfg := &w.Config
	w.oneShot = make(map[txn.UserID]bool)
	w.stints = make(map[txn.UserID][2]txn.Day)
	w.warmFrom = make(map[txn.UserID]txn.Day)
	nFraudsters := int(float64(cfg.Users) * cfg.FraudsterFrac)
	if nFraudsters < cfg.RingSizeMin {
		nFraudsters = cfg.RingSizeMin
	}
	// Fraudster and mule accounts are drawn from the population; rings
	// never share accounts. Choose from a shuffled pool.
	pool := r.Perm(cfg.Users)
	pi := 0
	take := func() txn.UserID {
		id := txn.UserID(pool[pi])
		pi++
		return id
	}
	// City alias weighted by risk: rings operate out of risky cities.
	weights := make([]float64, len(w.CityRisk))
	for i, c := range w.CityRisk {
		weights[i] = 0.02 + c
	}
	cityAlias := rng.NewAlias(weights)

	placed := 0
	coldPlaced := 0
	ringID := int32(0)
	for placed < nFraudsters {
		slots := cfg.RingSizeMin + r.Intn(cfg.RingSizeMax-cfg.RingSizeMin+1)
		ring := Ring{ID: ringID, BaseCity: uint16(cityAlias.Sample(r))}
		// Activity window. Long-lived rings span the whole timeline
		// (repeat offenders visible in the network window); short-lived
		// ones burn out quickly; cold-start rings appear only in the final
		// week, invisible to embeddings. The cold-start share is held at
		// ColdStartFrac deterministically so every generated world has
		// embedding-blind fraud.
		days := txn.Day(cfg.Days)
		cold := float64(coldPlaced) < cfg.ColdStartFrac*float64(placed+slots)
		switch {
		case cold:
			// Cold-start rings appear inside the final test week, so no
			// dataset's network window has seen them.
			ring.StartDay = days - txn.Day(1+r.Intn(7))
			ring.EndDay = days
			ring.LongLived = false
		case r.Bool(cfg.RepeatOffenderFrac):
			ring.StartDay = txn.Day(r.Intn(30))
			ring.EndDay = days
			ring.LongLived = true
		default:
			ring.StartDay = txn.Day(r.Intn(cfg.Days - 10))
			dur := txn.Day(3 + int(r.ExpFloat64()*8))
			ring.EndDay = ring.StartDay + dur
			if ring.EndDay > days {
				ring.EndDay = days
			}
		}
		placedBefore := placed
		// Each slot is a chain of account stints. An account is *warmed
		// up* first - it participates in unlabeled intra-ring shuffles for
		// weeks, building transaction-network topology - then runs a short
		// scam burst until victim reports get it locked, and the ring
		// replaces it with the next aged account. Consequently the
		// accounts caught scamming in the training window are mostly NOT
		// the accounts scamming on the test day (bounding identity
		// memorisation), yet test-day scammers already sit inside the
		// ring's subgraph in the 90-day network window (embeddings can see
		// them). A small share is never reported and scams to the end.
		for s := 0; s < slots && placed < nFraudsters; s++ {
			start := ring.StartDay + txn.Day(r.Intn(3))
			for start < ring.EndDay && placed < nFraudsters {
				m := take()
				w.markFraudster(m, ringID, r)
				if r.Bool(cfg.OneShotFrac) {
					w.oneShot[m] = false // limited, not yet used
				}
				end := ring.EndDay
				if !r.Bool(0.1) { // most accounts are reported and locked
					end = start + txn.Day(4+int(r.ExpFloat64()*6))
					if end > ring.EndDay {
						end = ring.EndDay
					}
				}
				warm := start - txn.Day(20+int(r.ExpFloat64()*30))
				if cold && warm < ring.StartDay {
					// Cold-start rings must stay invisible to every
					// network window: no warm-up before the final week.
					warm = ring.StartDay
				}
				if warm < 0 {
					warm = 0
				}
				w.stints[m] = [2]txn.Day{start, end}
				w.warmFrom[m] = warm
				ring.Members = append(ring.Members, m)
				placed++
				start = end
			}
		}
		for i := 0; i < cfg.MulesPerRing; i++ {
			m := take()
			w.Users[m].RingID = ringID // mules belong to the ring but are not fraudsters
			ring.Mules = append(ring.Mules, m)
		}
		if cold {
			coldPlaced += placed - placedBefore
		}
		w.Rings = append(w.Rings, ring)
		ringID++
	}
}

// activeMembers returns the ring's fraudster accounts whose scam stint
// covers day. dst is reused across calls.
func (w *World) activeMembers(ring *Ring, day txn.Day, dst []txn.UserID) []txn.UserID {
	dst = dst[:0]
	for _, m := range ring.Members {
		st := w.stints[m]
		if day >= st[0] && day < st[1] {
			dst = append(dst, m)
		}
	}
	return dst
}

// warmMembers returns the ring's accounts inside their warm-up or scam
// period on day (these participate in shuffles). dst is reused.
func (w *World) warmMembers(ring *Ring, day txn.Day, dst []txn.UserID) []txn.UserID {
	dst = dst[:0]
	for _, m := range ring.Members {
		if day >= w.warmFrom[m] && day < w.stints[m][1] {
			dst = append(dst, m)
		}
	}
	return dst
}

// markFraudster rewrites a chosen user's profile to a fraudster profile:
// a tendency (not a rule) toward young throwaway accounts, several devices
// and minimal KYC. Each shift is applied with moderate probability so that
// profile features overlap heavily with the honest population - no single
// attribute identifies a fraudster.
func (w *World) markFraudster(id txn.UserID, ring int32, r *rng.RNG) {
	u := &w.Users[id]
	u.IsFraudster = true
	u.RingID = ring
	if r.Bool(0.5) {
		u.AccountAge = txn.AccountAgeDays(r.Intn(14) * 30)
	}
	if r.Bool(0.4) {
		u.DeviceCount = uint8(2 + r.Intn(5))
	}
	if r.Bool(0.55) {
		u.KYCLevel = uint8(r.Intn(2))
	}
	u.MerchantFlag = false
}

func (w *World) genContacts(r *rng.RNG) {
	cfg := &w.Config
	n := cfg.Users
	w.contacts = make([][]txn.UserID, n)
	// Community assignment: zipf-ish sizes via squared-uniform index.
	comm := make([]int, n)
	members := make([][]txn.UserID, cfg.Communities)
	for i := 0; i < n; i++ {
		c := r.Intn(cfg.Communities)
		comm[i] = c
		members[c] = append(members[c], txn.UserID(i))
	}
	merchants := make([]txn.UserID, 0, n/16)
	for i := range w.Users {
		if w.Users[i].MerchantFlag {
			merchants = append(merchants, txn.UserID(i))
		}
	}
	for i := 0; i < n; i++ {
		k := 1 + int(r.ExpFloat64()*float64(cfg.ContactsMean))
		if k > 40 {
			k = 40
		}
		seen := map[txn.UserID]struct{}{txn.UserID(i): {}}
		for len(w.contacts[i]) < k {
			var cand txn.UserID
			switch {
			case r.Bool(0.78) && len(members[comm[i]]) > 1:
				cand = members[comm[i]][r.Intn(len(members[comm[i]]))]
			case r.Bool(0.3) && len(merchants) > 0:
				cand = merchants[r.Intn(len(merchants))]
			default:
				cand = txn.UserID(r.Intn(n))
			}
			if _, dup := seen[cand]; dup {
				// Bail out quickly for tiny communities.
				if len(seen) > k+4 {
					break
				}
				continue
			}
			seen[cand] = struct{}{}
			w.contacts[i] = append(w.contacts[i], cand)
		}
		if len(w.contacts[i]) == 0 {
			w.contacts[i] = append(w.contacts[i], txn.UserID((i+1)%n))
		}
	}
}

// genLog produces the day-ordered transaction log: normal transfers, ring
// shuffles, and scams.
func (w *World) genLog(r *rng.RNG) {
	cfg := &w.Config
	n := cfg.Users
	// Sender alias weighted by activity.
	weights := make([]float64, n)
	for i := range w.Users {
		weights[i] = float64(w.Users[i].ActivityScore)
	}
	senderAlias := rng.NewAlias(weights)

	// Susceptibility-weighted victim sampling via tournament selection.
	susc := make([]float64, n)
	for i := range w.Users {
		susc[i] = susceptibility(&w.Users[i])
	}
	pickVictim := func(rr *rng.RNG, exclude int32) txn.UserID {
		best, bestS := -1, -1.0
		for t := 0; t < 3; t++ {
			c := rr.Intn(n)
			if w.Users[c].IsFraudster || w.Users[c].RingID == exclude {
				continue
			}
			if susc[c] > bestS {
				best, bestS = c, susc[c]
			}
		}
		if best < 0 {
			return txn.UserID(rr.Intn(n))
		}
		return txn.UserID(best)
	}

	id := txn.TxnID(0)
	next := func() txn.TxnID { id++; return id - 1 }
	// Remember past victims per ring for repeat scams.
	ringVictims := make([][]txn.UserID, len(w.Rings))

	expected := int(float64(n)*cfg.TxnsPerUserDay*float64(cfg.Days)) + cfg.Days*len(w.Rings)*4
	w.Log = make([]txn.Transaction, 0, expected)

	for day := txn.Day(0); int(day) < cfg.Days; day++ {
		dayRNG := r.Split(uint64(day) + 1000)

		// --- normal traffic ---
		nNormal := poisson(dayRNG, float64(n)*cfg.TxnsPerUserDay)
		for i := 0; i < nNormal; i++ {
			from := txn.UserID(senderAlias.Sample(dayRNG))
			cl := w.contacts[from]
			var to txn.UserID
			if dayRNG.Bool(0.85) {
				to = cl[dayRNG.Intn(len(cl))]
			} else {
				to = txn.UserID(dayRNG.Intn(n))
			}
			if to == from {
				to = txn.UserID((int(to) + 1) % n)
			}
			w.Log = append(w.Log, w.normalTxn(dayRNG, next(), day, from, to))
		}

		// --- fraud rings ---
		var active, warm []txn.UserID
		for ri := range w.Rings {
			ring := &w.Rings[ri]
			if day >= ring.EndDay {
				continue
			}
			warm = w.warmMembers(ring, day, warm)
			active = w.activeMembers(ring, day, active)
			if len(warm) == 0 && len(active) == 0 {
				continue
			}
			// Intra-ring shuffles: warming-up account -> mule, mule ->
			// mule. These are unlabeled but create the dense subgraph
			// embeddings learn; an aging scam account gets linked into the
			// ring's persistent mule cluster weeks before its first scam.
			nShuffle := 0
			if len(warm) > 0 {
				nShuffle = poisson(dayRNG, cfg.RingShufflesPerDay)
			}
			for s := 0; s < nShuffle; s++ {
				var from, to txn.UserID
				if dayRNG.Bool(0.6) && len(ring.Mules) > 0 {
					from = warm[dayRNG.Intn(len(warm))]
					to = ring.Mules[dayRNG.Intn(len(ring.Mules))]
				} else if len(ring.Mules) >= 2 {
					from = ring.Mules[dayRNG.Intn(len(ring.Mules))]
					to = ring.Mules[dayRNG.Intn(len(ring.Mules))]
				} else {
					from = warm[dayRNG.Intn(len(warm))]
					to = warm[dayRNG.Intn(len(warm))]
				}
				if from == to {
					continue
				}
				t := w.normalTxn(dayRNG, next(), day, from, to)
				t.TransCity = ring.BaseCity
				t.Amount = float32(math.Exp(dayRNG.NormFloat64()*0.6 + 6.2)) // larger shuffles
				w.Log = append(w.Log, t)
			}
			// Scams: victim -> fraudster, labeled fraud. One-shot
			// fraudsters (OneShotFrac of ring members) stop after their
			// first scam, which keeps the repeat-offender share near the
			// paper's ~70%.
			for _, f := range active {
				nScams := poisson(dayRNG, cfg.ScamsPerDay)
				if used, limited := w.oneShot[f]; limited {
					if used {
						continue
					}
					if nScams > 1 {
						nScams = 1
					}
					if nScams == 1 {
						w.oneShot[f] = true
					}
				}
				for s := 0; s < nScams; s++ {
					var victim txn.UserID
					if len(ringVictims[ri]) > 0 && dayRNG.Bool(cfg.VictimRepeatProb) {
						victim = ringVictims[ri][dayRNG.Intn(len(ringVictims[ri]))]
					} else {
						victim = pickVictim(dayRNG, ring.ID)
						ringVictims[ri] = append(ringVictims[ri], victim)
					}
					w.Log = append(w.Log, w.scamTxn(dayRNG, next(), day, victim, f, ring))
				}
			}
		}
	}
	// The log is generated day-ordered already; sort within days by second
	// for a realistic stream and deterministic order.
	sortLog(w.Log)
}

// sortLog orders a log by (day, second), keeping ties in place: the
// stream order the slicer depends on.
func sortLog(log []txn.Transaction) {
	slices.SortStableFunc(log, func(a, b txn.Transaction) int {
		return cmp.Or(cmp.Compare(a.Day, b.Day), cmp.Compare(a.Sec, b.Sec))
	})
}

// normalTxn synthesizes an honest transfer. A small fraction gets
// risky-looking attributes (late hour, proxy IP, travel) so that fraud is
// not trivially separable.
func (w *World) normalTxn(r *rng.RNG, id txn.TxnID, day txn.Day, from, to txn.UserID) txn.Transaction {
	fu := &w.Users[from]
	t := txn.Transaction{
		ID: id, Day: day, From: from, To: to,
		Amount:  float32(math.Exp(r.NormFloat64()*0.7)) * fu.AvgAmount,
		Channel: txn.Channel(r.Intn(txn.NumChannels)),
	}
	// Daytime-weighted hour.
	if r.Bool(0.9) {
		t.Sec = int32((8*3600 + r.Intn(15*3600)))
	} else {
		t.Sec = int32(r.Intn(8 * 3600))
	}
	if r.Bool(0.9) {
		t.TransCity = fu.HomeCity
	} else {
		t.TransCity = uint16(r.Intn(w.Config.Cities))
	}
	u := r.Float64()
	t.DeviceRisk = float32(u * u * u * u)
	v := r.Float64()
	t.IPRisk = float32(v * v * v)
	if r.Bool(0.05) { // occasional VPN / shared IP
		t.IPRisk = float32(0.4 + 0.6*r.Float64())
	}
	// Benign anomalies: travellers making unusually large transfers from a
	// foreign city, often at odd hours. These honest outliers are what
	// break pure anomaly detection (the paper's observation that IF's
	// outliers "are probably not caused by fraud cases but for other
	// reasons").
	if r.Bool(0.03) {
		t.Amount *= float32(3 + 5*r.Float64())
		t.TransCity = uint16(r.Intn(w.Config.Cities))
		if r.Bool(0.5) {
			t.Sec = int32(r.Intn(8 * 3600))
		}
		if r.Bool(0.4) {
			t.IPRisk = float32(0.3 + 0.7*r.Float64())
		}
	}
	return t
}

// scamTxn synthesizes a fraudulent transfer from victim to fraudster.
// Individual attributes overlap with honest traffic; the joint distribution
// (amount band x hour x IP risk x city risk x fresh transferee account) is
// what separates it.
func (w *World) scamTxn(r *rng.RNG, id txn.TxnID, day txn.Day, victim, fraudster txn.UserID, ring *Ring) txn.Transaction {
	vu := &w.Users[victim]
	t := txn.Transaction{
		ID: id, Day: day, From: victim, To: fraudster, Fraud: true,
	}
	// Scam amounts sit in a band that overlaps the honest distribution's
	// upper half; individually the amount is a weak cue.
	t.Amount = float32(math.Exp(r.NormFloat64()*0.9 + 6.0)) // median ~400 yuan
	if r.Bool(0.3) {
		t.Amount = float32(math.Round(float64(t.Amount)/100) * 100)
		if t.Amount < 100 {
			t.Amount = 100
		}
	}
	// Mild evening/night skew.
	if r.Bool(0.25) {
		t.Sec = int32(20*3600 + r.Intn(8*3600))
		if t.Sec >= 24*3600 {
			t.Sec -= 24 * 3600
		}
	} else {
		t.Sec = int32(8*3600 + r.Intn(15*3600))
	}
	// Some scams route through the ring's city IP pool.
	if r.Bool(0.3) {
		t.TransCity = ring.BaseCity
	} else {
		t.TransCity = vu.HomeCity
	}
	// A minority of victims are phished onto proxied sessions.
	if r.Bool(0.3) {
		t.IPRisk = float32(0.3 + 0.7*r.Float64())
	} else {
		v := r.Float64()
		t.IPRisk = float32(v * v * v)
	}
	u := r.Float64()
	t.DeviceRisk = float32(u * u * u)
	if r.Bool(0.15) {
		t.DeviceRisk = float32(0.3 + 0.7*r.Float64())
	}
	// Mild skew to instant channels.
	if r.Bool(0.45) {
		t.Channel = txn.ChannelBankCard
	} else {
		t.Channel = txn.Channel(r.Intn(txn.NumChannels))
	}
	return t
}

// poisson draws a Poisson variate with the given mean (Knuth for small
// means, normal approximation above 30).
func poisson(r *rng.RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(math.Round(mean + math.Sqrt(mean)*r.NormFloat64()))
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Dataset slices the paper's dataset i (1-based; i=1 tests on April 10,
// day 104) out of the world's log.
func (w *World) Dataset(i int) (*txn.Dataset, error) {
	if i < 1 || i > 7 {
		return nil, fmt.Errorf("synth: dataset index %d outside [1,7]", i)
	}
	testDay := txn.Day(txn.NetworkDays + txn.TrainDays + i - 1)
	return txn.Slice(w.Log, i, testDay)
}

// UserTable exposes profiles indexed by UserID for feature extraction.
func (w *World) UserTable() []txn.User { return w.Users }

// FraudsterStats reports how many fraudsters committed at least one and at
// least two scams - the paper's "approximately 70% of the fraudsters have
// fraudulent behaviors more than once".
func (w *World) FraudsterStats() (once, repeat int) {
	counts := make(map[txn.UserID]int)
	for _, t := range w.Log {
		if t.Fraud {
			counts[t.To]++
		}
	}
	for _, c := range counts {
		if c >= 1 {
			once++
		}
		if c >= 2 {
			repeat++
		}
	}
	return once, repeat
}
