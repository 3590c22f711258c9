package main

import (
	"math"

	"titant/internal/rng"
	"titant/internal/txn"
)

// zipfExponent is the user-popularity skew of the warm workloads: a few
// users transact constantly, most rarely.
const zipfExponent = 1.07

// zipfTable builds an O(1) sampler over n users whose rank-k user is
// drawn with weight 1/(k+1)^s. An alias table (two draws, no
// transcendental) keeps the generator far below the engine's per-
// transaction cost, which rejection-inversion does not.
func zipfTable(n int, s float64) *rng.Alias {
	w := make([]float64, n)
	for k := range w {
		w[k] = 1 / math.Pow(float64(k+1), s)
	}
	return rng.NewAlias(w)
}

// traffic is one caller's seeded transaction stream. It depends only on
// the seed, the caller index and the user distribution — never on the
// workload's name or topology — so workloads that share a distribution
// (batch_warm and batch_sharded) see byte-identical input.
type traffic struct {
	r      *rng.RNG
	zipf   *rng.Alias // nil: users drawn uniformly
	homes  []uint16   // home city per user, index = user ID
	cities int
	day    txn.Day
	nextID txn.TxnID
}

// newTraffic builds caller's stream over the population whose home
// cities are homes. Transaction IDs start far above any world ID.
func newTraffic(seed uint64, caller int, zipf *rng.Alias, homes []uint16, cities int, day txn.Day) *traffic {
	return &traffic{
		r:      rng.New(seed).Split(uint64(caller) + 1),
		zipf:   zipf,
		homes:  homes,
		cities: cities,
		day:    day,
		nextID: txn.TxnID(caller+1) << 40,
	}
}

func (g *traffic) user() txn.UserID {
	if g.zipf != nil {
		return txn.UserID(g.zipf.Sample(g.r))
	}
	return txn.UserID(g.r.Intn(len(g.homes)))
}

// fill overwrites dst with the stream's next len(dst) transactions:
// two distinct users, a right-skewed amount, the sender's home city nine
// times in ten, low device and IP risk with a thin risky tail.
func (g *traffic) fill(dst []txn.Transaction) {
	for i := range dst {
		from := g.user()
		to := g.user()
		for to == from {
			to = g.user()
		}
		u := g.r.Float64()
		city := g.homes[from]
		if g.r.Intn(10) == 0 {
			city = uint16(g.r.Intn(g.cities))
		}
		d, p := g.r.Float64(), g.r.Float64()
		dst[i] = txn.Transaction{
			ID:         g.nextID,
			Day:        g.day,
			Sec:        int32(g.r.Intn(86400)),
			From:       from,
			To:         to,
			Amount:     float32(20 + 3000*u*u*u),
			TransCity:  city,
			DeviceRisk: float32(d * d * d),
			IPRisk:     float32(p * p * p),
			Channel:    txn.Channel(g.r.Intn(txn.NumChannels)),
		}
		g.nextID++
	}
}
