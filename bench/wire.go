package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"

	"titant/internal/ms"
	"titant/internal/router"
	"titant/internal/txn"
)

// serveLoopback serves h on an ephemeral loopback port until the fixture
// closes and returns its base URL.
func (fx *fixture) serveLoopback(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on Close
	}()
	fx.closers = append(fx.closers, func() {
		srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// fleet is the wire tier on loopback: shard servers behind the router.
type fleet struct {
	routerURL string
	shards    []*ms.Server
}

// openFleet opens n shard servers behind the router. Every shard holds
// its own full copy of the feature table and its own replica of the warm
// window — the wire tier's stance: T+1 artifacts replicate to every
// daemon, traffic partitions — and the workload's full cache budget, as
// n daemons started with the same flags would. Both hops keep at most
// one idle connection per caller.
func (fx *fixture) openFleet(n, cache int) (*fleet, error) {
	f := &fleet{}
	urls := make([]string, n)
	for i := range urls {
		tabs, err := fx.deploy(1)
		if err != nil {
			return nil, err
		}
		st := fx.warmStore()
		if err := fx.timed(stageOpen, func() error {
			srv, err := ms.New(tabs[0], fx.bundle, fx.engineOpts(st, cache)...)
			if err != nil {
				return err
			}
			fx.closers = append(fx.closers, srv.Close)
			f.shards = append(f.shards, srv)
			urls[i], err = fx.serveLoopback(srv.Handler())
			return err
		}); err != nil {
			return nil, err
		}
	}
	err := fx.timed(stageOpen, func() error {
		tr := &http.Transport{MaxIdleConnsPerHost: fx.nproc}
		fx.closers = append(fx.closers, tr.CloseIdleConnections)
		rt, err := router.New(urls, router.WithTransport(tr))
		if err != nil {
			return err
		}
		f.routerURL, err = fx.serveLoopback(rt.Handler())
		return err
	})
	return f, err
}

// wireClient posts decide batches to one base URL over keep-alive
// connections, at most one per caller.
type wireClient struct {
	http *http.Client
	url  string
}

func (fx *fixture) newWireClient(base string) *wireClient {
	tr := &http.Transport{MaxIdleConnsPerHost: fx.nproc, MaxConnsPerHost: fx.nproc}
	fx.closers = append(fx.closers, tr.CloseIdleConnections)
	return &wireClient{http: &http.Client{Transport: tr}, url: base + "/v1/decide/batch"}
}

func wireTxn(t *txn.Transaction) ms.TxnRequest {
	return ms.TxnRequest{
		ID: int64(t.ID), Day: int(t.Day), Sec: t.Sec,
		From: int32(t.From), To: int32(t.To),
		Amount: t.Amount, TransCity: t.TransCity,
		DeviceRisk: t.DeviceRisk, IPRisk: t.IPRisk,
		Channel: uint8(t.Channel),
	}
}

func decideRequest(txns []txn.Transaction) ms.DecideBatchRequest {
	req := ms.DecideBatchRequest{Transactions: make([]ms.DecideRequest, len(txns))}
	for i := range txns {
		req.Transactions[i].TxnRequest = wireTxn(&txns[i])
	}
	return req
}

// routedResponse is the router's decide-batch answer: the shard shape
// plus the count of items it degraded.
type routedResponse struct {
	ms.DecideBatchResponse
	Degraded int `json:"degraded"`
}

// decide sends one batch. A non-200 status (429s included), an
// undecodable body or any degraded item fails the whole request: a
// degraded decision carries the fallback action, not a verdict.
func (c *wireClient) decide(ctx context.Context, txns []txn.Transaction) ([]ms.Decision, error) {
	body, err := json.Marshal(decideRequest(txns))
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("%s: status %d: %s", c.url, resp.StatusCode, msg)
	}
	// Read to EOF before decoding so the connection returns to the pool.
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: read: %w", c.url, err)
	}
	var out routedResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("%s: decode: %w", c.url, err)
	}
	if out.Degraded > 0 {
		return nil, fmt.Errorf("%s: %d degraded items", c.url, out.Degraded)
	}
	return out.Decisions, nil
}
