package ms

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"titant/internal/decision"
	"titant/internal/feature"
	"titant/internal/rng"
	"titant/internal/txn"
)

// wireSeeds are request bodies the differential tests start from: what
// the HTTP tests and Go clients send, then the corners where a JSON
// decoder can disagree with encoding/json.
var wireSeeds = []string{
	`{"transactions":[{"id":1,"from":1,"to":2,"amount":5}]}`,
	`{"transactions":[{"id":100,"day":1,"sec":2,"from":1,"to":2,"amount":1800,"trans_city":3,"device_risk":0.25,"ip_risk":0.5,"channel":2,"scenario":"withdrawal","fraud":true}]}`,
	`{"transactions":[]}`, `{"transactions":null}`, `{}`, `null`, ` { } `, ``, `[]`, `5`, `"x"`, `true`,
	`{"transactions":[]}garbage`, `{"transactions":[]} {}`, `{"transactions":[`, `{"transactions":[{"id":1},]}`,
	`{"transactions":[{"id":1}],}`, `{"transactions":{}}`, `{"transactions":[5]}`, `{"transactions":[null,{"id":2}]}`,
	`{"transactions":[{"from":"7"}]}`, `{"transactions":[{"from":2147483648}]}`, `{"transactions":[{"from":-2147483648}]}`,
	`{"transactions":[{"id":9223372036854775808}]}`, `{"transactions":[{"id":-9223372036854775808}]}`,
	`{"transactions":[{"id":1.0}]}`, `{"transactions":[{"id":1e3}]}`, `{"transactions":[{"id":-0}]}`, `{"transactions":[{"id":01}]}`,
	`{"transactions":[{"trans_city":65536}]}`, `{"transactions":[{"trans_city":-0}]}`, `{"transactions":[{"channel":256}]}`,
	`{"transactions":[{"amount":1e39}]}`, `{"transactions":[{"amount":-1.5e-50}]}`, `{"transactions":[{"amount":1.}]}`,
	`{"transactions":[{"amount":.5}]}`, `{"transactions":[{"amount":+1}]}`, `{"transactions":[{"amount":0x10}]}`, `{"transactions":[{"amount":-}]}`,
	`{"transactions":[{"amount":3.4028235e38}]}`, `{"transactions":[{"amount":3.4028236e38}]}`, `{"transactions":[{"amount":16777217}]}`,
	`{"transactions":[{"scenario":"bogus"}]}`, `{"transactions":[{"scenario":5}]}`, `{"transactions":[{"scenario":null}]}`,
	`{"transactions":[{"scenario":"pay\u006dent"}]}`, `{"transactions":[{"scenario":"\ud83d\ude00"}]}`, `{"transactions":[{"scenario":"\ud83d"}]}`,
	`{"transactions":[{"scenario":"bogus","scenario":"payment"}]}`, `{"transactions":[{"scenario":"payment","scenario":"bogus"}]}`,
	`{"transactions":[{"fraud":1}]}`, `{"transactions":[{"fraud":"true"}]}`, `{"transactions":[{"fraud":null}]}`, `{"transactions":[{"fraud":tru}]}`,
	`{"transactions":[{"ID":3,"From":4,"TRANS_CITY":5,"ip_riſk":0.5,"device_risK":0.25}]}`, `{"TRANSACTIONS":[{"id":1}]}`, `{"tranſactionſ":[{"id":1}]}`,
	`{"transactions":[{"id":1,"id":2,"id":null}]}`, `{"transactions":[{"\u0069d":7}]}`, `{"transactions":[{"i\u0044":7}]}`,
	`{"transactions":[{"id":1,"amount":5}],"transactions":[{"id":2}]}`,
	`{"transactions":[{"id":1},{"id":2,"to":9},{"id":3}],"transactions":[{"amount":1}],"transactions":[{},{},{}]}`,
	`{"transactions":[{"id":1,"scenario":"bogus"}],"transactions":[]}`, `{"transactions":[{"id":1}],"transactions":[],"transactions":[{}]}`,
	`{"transactions":[{"id":1}],"transactions":null}`, `{"transactions":[{"id":1}],"transactions":5}`,
	`{"transactions":[{"unknown":{"a":[1,2,{"b":"c\n"}]},"id":1}]}`, "{\"transactions\":[{\"memo\":\"a\tb\"}]}", `{"transactions":[{"memo":"\x"}]}`,
	`{"transactions":[{"memo":"\u12G4"}]}`, "{\"transactions\":[{\"memo\":\"\xff\xfe\"}]}", "{\"transactions\":[{\"\xff\":1}]}",
	"\n\t {\"transactions\" :\r[ {\"id\" : 1 } , { } ] } \n", `{"transactions":[{"id":1}`, `{"transactions":[{"id":1}}`, `{"transactions":[{"id"}]}`,
	`{"transactions":[{id:1}]}`, `{"transactions":[{"id":1 "from":2}]}`, `{"transactions":[{"id":nul}]}`, `{"a":tru}`, `{"a":[}`, `{"a":{]}`,
	`{"transactions":[{"id":1}]}` + "\x00",
}

func wireRowsEqual(a, b txn.Transaction) bool {
	return a.ID == b.ID && a.Day == b.Day && a.Sec == b.Sec && a.From == b.From && a.To == b.To &&
		math.Float32bits(a.Amount) == math.Float32bits(b.Amount) && a.TransCity == b.TransCity &&
		math.Float32bits(a.DeviceRisk) == math.Float32bits(b.DeviceRisk) &&
		math.Float32bits(a.IPRisk) == math.Float32bits(b.IPRisk) && a.Channel == b.Channel && a.Fraud == b.Fraud
}

// refDecode is the reference decode of one verb's request body: the
// exported wire structs under json.Unmarshal, then the conversions the
// handlers used to run.
func refDecode(body []byte, op verb, batch bool) (txns []txn.Transaction, scs []decision.Scenario, err error) {
	var decide []DecideRequest
	var ingest []IngestRequest
	var score []TxnRequest
	switch {
	case op == verbDecide && batch:
		var req DecideBatchRequest
		err, decide = json.Unmarshal(body, &req), req.Transactions
	case op == verbDecide:
		decide = make([]DecideRequest, 1)
		err = json.Unmarshal(body, &decide[0])
	case op == verbIngest && batch:
		var req IngestBatchRequest
		err, ingest = json.Unmarshal(body, &req), req.Transactions
	case op == verbIngest:
		ingest = make([]IngestRequest, 1)
		err = json.Unmarshal(body, &ingest[0])
	case batch:
		var req BatchRequest
		err, score = json.Unmarshal(body, &req), req.Transactions
	default:
		score = make([]TxnRequest, 1)
		err = json.Unmarshal(body, &score[0])
	}
	if err != nil {
		return nil, nil, err
	}
	for i := range decide {
		sc, err := decision.ParseScenario(decide[i].Scenario)
		if err != nil {
			return nil, nil, err
		}
		txns, scs = append(txns, decide[i].TxnRequest.Txn()), append(scs, sc)
	}
	for i := range ingest {
		txns, scs = append(txns, ingest[i].Txn()), append(scs, decision.ScenarioDefault)
	}
	for i := range score {
		txns, scs = append(txns, score[i].Txn()), append(scs, decision.ScenarioDefault)
	}
	return txns, scs, nil
}

// wireScratch is shared by every differential check, as the handlers'
// pooled scratch is by every request: state leaking from one body into
// the next would show up as a disagreement.
var wireScratch wireBuf

// checkWireDecode holds the codec to encoding/json on one body: for
// every verb, single and batch, both reject or both yield the same rows;
// and the router's split agrees with the []json.RawMessage walk it
// replaced.
func checkWireDecode(t *testing.T, body []byte) {
	t.Helper()
	for _, op := range []verb{verbScore, verbDecide, verbIngest} {
		for _, batch := range []bool{false, true} {
			want, wantSc, refErr := refDecode(body, op, batch)
			wb := &wireScratch
			err := wb.decode(body, verbFields[op], batch, math.MaxInt)
			if err == nil {
				_, err = wb.scenarioError()
			}
			if (err == nil) != (refErr == nil) {
				t.Fatalf("verb %d batch %v on %q: codec says %v, encoding/json says %v", op, batch, body, err, refErr)
			}
			if err != nil {
				continue
			}
			if len(wb.txns) != len(want) || len(wb.scenarios) != len(want) {
				t.Fatalf("verb %d batch %v on %q: %d rows, encoding/json decodes %d", op, batch, body, len(wb.txns), len(want))
			}
			for i := range want {
				if !wireRowsEqual(wb.txns[i], want[i]) || wb.scenarios[i] != wantSc[i] {
					t.Fatalf("verb %d batch %v on %q: row %d is %+v/%v, encoding/json decodes %+v/%v",
						op, batch, body, i, wb.txns[i], wb.scenarios[i], want[i], wantSc[i])
				}
			}
		}
	}

	// The router's view: raw items plus the routing members.
	type peek struct {
		ID   int64 `json:"id"`
		From int32 `json:"from"`
	}
	var ref struct {
		Transactions []json.RawMessage `json:"transactions"`
	}
	refErr := json.Unmarshal(body, &ref)
	peeks := make([]peek, len(ref.Transactions))
	for i := range ref.Transactions {
		if refErr == nil {
			refErr = json.Unmarshal(ref.Transactions[i], &peeks[i])
		}
	}
	items, err := SplitTransactions(body, nil)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("split of %q: codec says %v, encoding/json says %v", body, err, refErr)
	}
	if err == nil {
		if len(items) != len(peeks) {
			t.Fatalf("split of %q: %d items, encoding/json finds %d", body, len(items), len(peeks))
		}
		for i, it := range items {
			if raw := body[it.Start:it.End]; !bytes.Equal(raw, ref.Transactions[i]) || it.ID != peeks[i].ID || it.From != peeks[i].From {
				t.Fatalf("split of %q: item %d is %q id %d from %d, encoding/json finds %q %+v",
					body, i, raw, it.ID, it.From, ref.Transactions[i], peeks[i])
			}
		}
	}
	var one peek
	refErr = json.Unmarshal(body, &one)
	id, from, err := PeekTxn(body)
	if (err == nil) != (refErr == nil) || err == nil && (id != one.ID || from != one.From) {
		t.Fatalf("peek of %q: codec says %d/%d/%v, encoding/json says %+v/%v", body, id, from, err, one, refErr)
	}
}

func FuzzDecodeBatch(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkWireDecode)
}

// TestWireDecodeRandom runs the differential check over seeded mutations
// of the seed bodies, so plain `go test` explores more than the corpus.
func TestWireDecodeRandom(t *testing.T) {
	r := rng.New(13)
	tokens := []string{`"id"`, `"from"`, `"scenario"`, `"fraud"`, `"transactions"`, `"payment"`, `null`, `true`, `false`,
		`:`, `,`, `{`, `}`, `[`, `]`, `"`, `\`, `-`, `.`, `e`, `0`, `9`, ` `, "\n", `\u00e9`, `1e-7`, `2147483647`}
	for round := 0; round < 20000; round++ {
		body := []byte(wireSeeds[r.Intn(len(wireSeeds))])
		for edits := 1 + r.Intn(3); edits > 0; edits-- {
			at := r.Intn(len(body) + 1)
			switch tok := tokens[r.Intn(len(tokens))]; r.Intn(3) {
			case 0: // insert
				body = append(body[:at:at], append([]byte(tok), body[at:]...)...)
			case 1: // delete
				if at < len(body) {
					body = append(body[:at:at], body[at+1:]...)
				}
			default: // splice another seed's tail
				other := wireSeeds[r.Intn(len(wireSeeds))]
				body = append(body[:at:at], other[r.Intn(len(other)+1):]...)
			}
		}
		checkWireDecode(t, body)
	}
}

// TestWireDecodeTrailingBytes pins the one place the codec deliberately
// leaves the old shard behaviour: json.Decoder stopped at the end of the
// first value and let anything follow it; json.Unmarshal — the router's
// decoder — never did. Both tiers now reject.
func TestWireDecodeTrailingBytes(t *testing.T) {
	body := []byte(`{"transactions":[{"id":1,"from":1,"to":2}]}garbage`)
	var req BatchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		t.Fatalf("json.Decoder no longer accepts trailing bytes: %v", err)
	}
	if err := json.Unmarshal(body, &req); err == nil {
		t.Fatal("json.Unmarshal accepts trailing bytes")
	}
	var wb wireBuf
	if err := wb.decode(body, txnFields, true, 16); err == nil {
		t.Fatal("codec accepts trailing bytes")
	}
	if _, err := SplitTransactions(body, nil); err == nil {
		t.Fatal("split accepts trailing bytes")
	}
}

// TestWireDecodeDepth: the nesting limit is encoding/json's.
func TestWireDecodeDepth(t *testing.T) {
	for _, depth := range []int{maxWireDepth - 3, maxWireDepth - 2} { // the value sits inside batch, array and item
		body := []byte(`{"transactions":[{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}]}`)
		checkWireDecode(t, body)
	}
}

// TestWireDecodeBatchLimit: rows past the limit are checked and counted
// but not kept.
func TestWireDecodeBatchLimit(t *testing.T) {
	var wb wireBuf
	body := `{"transactions":[{"id":1},{"id":2},{"id":3},{"id":4},{"id":5}]}`
	if err := wb.decode([]byte(body), txnFields, true, 3); err != nil {
		t.Fatal(err)
	}
	if wb.n != 5 || len(wb.txns) != 3 || cap(wb.txns) > 4 || wb.txns[2].ID != 3 {
		t.Fatalf("n %d, %d rows (cap %d): %+v", wb.n, len(wb.txns), cap(wb.txns), wb.txns)
	}
	bad := `{"transactions":[{"id":1},{"id":2},{"id":3},{"id":4},{"id":"5"}]}`
	if err := wb.decode([]byte(bad), txnFields, true, 3); err == nil {
		t.Fatal("a malformed row past the limit was accepted")
	}
}

func TestReadBody(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789"), 1000)
	for _, size := range []int64{-1, 0, 5, int64(len(data)), int64(len(data)) + 100, 1 << 40} {
		for _, r := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data)), iotest.DataErrReader(bytes.NewReader(data))} {
			got, err := ReadBody([]byte("pre"), r, size)
			if err != nil || !bytes.Equal(got[3:], data) || string(got[:3]) != "pre" {
				t.Fatalf("size hint %d: %d bytes, %v", size, len(got), err)
			}
		}
	}
	if got, err := ReadBody(nil, bytes.NewReader(data), int64(len(data))); err != nil || cap(got) >= 2*len(data) {
		t.Fatalf("exact hint: cap %d for %d bytes, %v", cap(got), len(data), err)
	}
	if _, err := ReadBody(nil, iotest.TimeoutReader(bytes.NewReader(data)), -1); err == nil {
		t.Fatal("read error swallowed")
	}
}

// wireStrings and wireFloats are where an encoder can stray from
// json.Marshal: the HTML-escaped and control characters, non-ASCII and
// invalid UTF-8, the line separators; and the float format switches at
// 1e-6 and 1e21, the e-09 clean-up, -0 and the subnormals.
var (
	wireStrings = []string{"", "2017-04-10", "band [0.5,1)", `q"uo\te`, "<script>&amp;</script>", "tab\there\nnl\rcr\bbs\fff",
		"\x00\x01\x1f\x7f", "é世界😀", "\xff\xfe invalid \xc3", "sep\u2028and\u2029", "\ufffd", "a\xe2\x80"}
	wireFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 0.1, 1e-6, 9.999999999999999e-7, 1e-7, 1.5e-9, 1e-10, 1e20, 1e21,
		9.999999999999999e20, 1.2345e22, -1e21, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		4.9e-324, 1e-320, 0.30000000000000004, 1e100, 1e-100, 0.000009999999999999999}
)

func randomVerdict(r *rng.RNG) Verdict {
	float := func() float64 {
		if r.Bool(0.5) {
			return wireFloats[r.Intn(len(wireFloats))]
		}
		for {
			if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	str := func() string {
		s := wireStrings[r.Intn(len(wireStrings))]
		if r.Bool(0.3) {
			s += wireStrings[r.Intn(len(wireStrings))]
		}
		return s
	}
	v := Verdict{
		TxnID: txn.TxnID(r.Uint64()), Score: float(), Fraud: r.Bool(0.5),
		Version: str(), Latency: time.Duration(r.Uint64() >> uint(r.Intn(64))),
	}
	switch r.Intn(4) {
	case 0: // nil
	case 1:
		v.Members = []MemberScore{}
	default:
		for k := 1 + r.Intn(3); k > 0; k-- {
			v.Members = append(v.Members, MemberScore{Name: str(), Score: float()})
		}
	}
	return v
}

func randomDecision(r *rng.RNG) Decision {
	return Decision{
		Verdict:  randomVerdict(r),
		Scenario: decision.Scenario(r.Intn(decision.NumScenarios)), Action: decision.Action(r.Intn(decision.NumActions)),
		Reason: wireStrings[r.Intn(len(wireStrings))], RuleOverride: r.Bool(0.5),
		PolicyVersion: wireStrings[r.Intn(len(wireStrings))],
	}
}

// TestWireEncodeMatchesJSON: every response the codec writes is, byte
// for byte, json.Marshal of the wire struct plus the newline.
func TestWireEncodeMatchesJSON(t *testing.T) {
	r := rng.New(29)
	var wb wireBuf
	check := func(what string, err error, v interface{}) {
		t.Helper()
		want, refErr := json.Marshal(v)
		if err != nil || refErr != nil {
			t.Fatalf("%s: codec %v, encoding/json %v", what, err, refErr)
		}
		if want = append(want, '\n'); !bytes.Equal(wb.out, want) {
			t.Fatalf("%s:\n got %s\nwant %s", what, wb.out, want)
		}
	}
	for round := 0; round < 3000; round++ {
		v, d := randomVerdict(r), randomDecision(r)
		check("verdict", wb.putVerdict(&v), v)
		check("decision", wb.putDecision(&d), d)
		vs, ds := make([]Verdict, r.Intn(4)), make([]Decision, r.Intn(4))
		for i := range vs {
			vs[i] = randomVerdict(r)
		}
		for i := range ds {
			ds[i] = randomDecision(r)
		}
		check("verdicts", wb.putVerdicts(vs), BatchResponse{Verdicts: vs})
		check("decisions", wb.putDecisions(ds), DecideBatchResponse{Decisions: ds})
		n := int(r.Uint64()>>uint(r.Intn(64))) - 5
		check("ingested", wb.putIngested(n), IngestResponse{Ingested: n})
	}
	check("no verdicts", wb.putVerdicts(nil), BatchResponse{Verdicts: []Verdict{}})
	check("no decisions", wb.putDecisions(nil), DecideBatchResponse{Decisions: []Decision{}})
}

// TestWireEncodeUnsupported: values JSON cannot carry fail the codec
// with encoding/json's own message, wrapped as the 500 envelope words it.
func TestWireEncodeUnsupported(t *testing.T) {
	var wb wireBuf
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, v := range []Verdict{{Score: f}, {Members: []MemberScore{{Name: "m", Score: f}}}} {
			_, refErr := json.Marshal(v)
			err := wb.putVerdicts([]Verdict{{}, v})
			if err == nil || refErr == nil || err.Error() != "encode response: "+refErr.Error() {
				t.Fatalf("score %v: codec says %v, encoding/json says %v", f, err, refErr)
			}
			if err := wb.putDecision(&Decision{Verdict: v}); err == nil {
				t.Fatalf("decision with score %v encoded", f)
			}
		}
	}
	for _, d := range []Decision{{Scenario: decision.Scenario(decision.NumScenarios)}, {Action: decision.Action(decision.NumActions)}} {
		if _, refErr := json.Marshal(d); refErr == nil {
			t.Fatal("encoding/json encodes an out-of-range enum")
		}
		if err := wb.putDecisions([]Decision{d}); err == nil {
			t.Fatalf("out-of-range enum encoded: %s", wb.out)
		}
	}
}

// An unencodable score still answers the 500 envelope the reflective
// path wrote: no trace ID, encoding/json's message.
func TestV1UnencodableScoreEnvelope(t *testing.T) {
	tab := table(t)
	city := feature.CityTable{Fraud: []float64{0.01}, Share: []float64{1}}
	b, err := NewEnsembleBundle("nan", []EnsembleMember{
		{Name: "nan", Clf: &fixedModel{V: math.NaN(), N: feature.NumBasic}, Threshold: 0.5},
	}, CombineMean, 0.5, city, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(tab, b, WithPolicy(decidePolicy(t)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	const want = `{"error":{"code":"internal","message":"encode response: json: unsupported value: NaN"}}` + "\n"
	for path, body := range map[string]string{
		"/v1/score":        `{"id":1,"from":1,"to":2}`,
		"/v1/score/batch":  `{"transactions":[{"id":1,"from":1,"to":2}]}`,
		"/v1/decide":       `{"id":1,"from":1,"to":2}`,
		"/v1/decide/batch": `{"transactions":[{"id":1,"from":1,"to":2}]}`,
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
			t.Errorf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
}

// discardWriter is the cheapest ResponseWriter: the allocation budget
// below is the handler's, not a recorder's.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestHandlerAllocBudget: serving a decide batch over HTTP allocates a
// constant per request, the same at 64 and at 256 transactions: the codec
// contributes nothing per transaction, and the engine puts its decisions
// in the request's pooled wire buffer, so none of them is allocated.
func TestHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch is not reused reliably under the race detector")
	}
	tab := table(t)
	up := &Uploader{Table: tab}
	for i := txn.UserID(1); i <= 32; i++ {
		u := txn.User{ID: i, Age: uint8(20 + i)}
		if err := up.PutUser(&u, nil); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(tab, trainToy(t, 0), WithPolicy(decidePolicy(t)), WithWorkers(1), WithUserCache(64))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	handler := srv.Handler()
	allocs := func(n int) float64 {
		req := DecideBatchRequest{Transactions: make([]DecideRequest, n)}
		for i := range req.Transactions {
			tr := TxnRequest{ID: int64(i), From: int32(1 + i%32), To: int32(1 + (i+7)%32), Amount: float32(10 * i), Sec: int32(i)}
			req.Transactions[i] = DecideRequest{TxnRequest: tr, Scenario: "withdrawal"}
		}
		body, _ := json.Marshal(req)
		hr := httptest.NewRequest(http.MethodPost, "/v1/decide/batch", nil)
		hr.ContentLength = int64(len(body))
		w := &discardWriter{h: http.Header{}}
		rd := bytes.NewReader(body)
		got := testing.AllocsPerRun(50, func() {
			rd.Reset(body)
			hr.Body = io.NopCloser(rd)
			handler.ServeHTTP(w, hr)
		})
		t.Logf("%d transactions: handler %.0f allocs", n, got)
		return got
	}
	small, large := allocs(64), allocs(256)
	// Measured 7; 10 while the trace middleware also put the trace in the
	// request's context (a context, the boxed ID and a request copy), 12
	// before the engine wrote into the wire buffer, of which DecideBatch's
	// 2. The 7: the minted trace ID and its response header slice, the
	// Content-Length value and its slice, MaxBytesReader, the error parsing
	// the absent X-Deadline-Ms, the test's own body wrapper.
	const budget = 7
	if small > budget || large > budget {
		t.Errorf("handler allocates %.0f (64 txns) and %.0f (256 txns) per request, budget %d", small, large, budget)
	}
	if small != large {
		t.Errorf("handler allocations grow with the batch: %.0f at 64 transactions, %.0f at 256", small, large)
	}
}
