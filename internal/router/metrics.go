package router

import (
	"fmt"
	"net/http"
	"strconv"

	"titant/internal/link"
	"titant/internal/telemetry"
)

// The router's Prometheus surface. GET /metrics answers with two layers
// merged into one page: the router's own series (scatter/gather
// counters, per-shard breaker and latency state, wire-tier stage
// histograms), plus a live self-scrape of every shard's /metrics page
// re-labeled with shard="<i>" — the outer topology stamps the label, so
// one scrape of the router sees the whole fleet without a separate
// scrape config per shard. Unreachable shards degrade the page (their
// series are absent and counted in titant_router_scrape_unreachable),
// never fail it: metrics must answer while the fleet is broken.

// ownMetrics renders the router-owned series: the "router" stats section
// declares them (see RouterStats).
func (rt *Router) ownMetrics() *telemetry.Expo {
	e := telemetry.NewExpo()
	rs := rt.routerStats()
	e.Emit(&rs)
	return e
}

// metrics serves GET /metrics: the router's own series merged with a
// live re-labeled self-scrape of every shard's page.
func (rt *Router) metrics(w http.ResponseWriter, r *http.Request, h *link.Header) {
	fan := rt.fanGet(r, h, "/metrics", callSpec{retryable: true})
	defer fan.put()
	ups := fan.ups
	unreachable := 0
	page, err := telemetry.ParseExpo(rt.ownMetrics().Bytes())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	for si, u := range ups {
		if u.failed() || u.Status != http.StatusOK {
			rt.errors.Add(1)
			unreachable++
			continue
		}
		sc, err := telemetry.ParseExpo(u.Body)
		if err != nil {
			rt.errors.Add(1)
			writeError(w, http.StatusBadGateway, "shard_bad_response",
				fmt.Sprintf("shard %d /metrics: %v", si, err))
			return
		}
		sc.AddLabel("shard", strconv.Itoa(si))
		if err := page.Merge(sc); err != nil {
			rt.errors.Add(1)
			writeError(w, http.StatusBadGateway, "shard_bad_response", err.Error())
			return
		}
	}
	un := telemetry.NewExpo()
	un.Gauge("titant_router_scrape_unreachable", "shards whose /metrics could not be scraped", float64(unreachable))
	unScrape, err := telemetry.ParseExpo(un.Bytes())
	if err == nil {
		_ = page.Merge(unScrape)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(page.Render())
}
