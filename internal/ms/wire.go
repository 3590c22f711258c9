package ms

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"titant/internal/decision"
	"titant/internal/txn"
)

// The data plane's JSON codec. The six hot routes (/v1/{score,decide,
// ingest} and their /batch forms) read and write the same JSON text as
// the exported wire structs (TxnRequest, Verdict, Decision, ...) do under
// encoding/json, but through one hand-written scanner and a set of
// append encoders, so a request costs no reflection, no intermediate
// request structs and no per-field allocation. The shard handlers decode
// with it, the router splits and splices with it, and both tiers
// therefore accept and reject exactly the same bodies.
//
// Decoding follows json.Unmarshal on these schemas: unknown members are
// skipped (but must be valid JSON), keys match case-insensitively, the
// last duplicate of a member wins, null leaves a field as it is, a value
// of the wrong type or out of its field's range is an error, and so is
// anything but whitespace after the top-level value. Encoding is
// byte-identical to json.Marshal of the wire structs: float format, HTML
// escaping, omitempty. The differential fuzz and property tests in
// wire_test.go hold both claims against encoding/json itself.
//
// Control-plane routes, error and degraded envelopes and /v1/stats stay
// on encoding/json: they are cold, and their shapes are open maps.

// wireField is a set of transaction members.
type wireField uint16

const (
	fieldID wireField = 1 << iota
	fieldDay
	fieldSec
	fieldFrom
	fieldTo
	fieldAmount
	fieldTransCity
	fieldDeviceRisk
	fieldIPRisk
	fieldChannel
	fieldScenario // DecideRequest
	fieldFraud    // IngestRequest

	txnFields = fieldID | fieldDay | fieldSec | fieldFrom | fieldTo | fieldAmount |
		fieldTransCity | fieldDeviceRisk | fieldIPRisk | fieldChannel
)

// wireFieldNames are the members' JSON names, in bit order.
var wireFieldNames = [...][]byte{
	[]byte("id"), []byte("day"), []byte("sec"), []byte("from"), []byte("to"),
	[]byte("amount"), []byte("trans_city"), []byte("device_risk"), []byte("ip_risk"),
	[]byte("channel"), []byte("scenario"), []byte("fraud"),
}

// lookupField maps an object key to its member, case-insensitively like
// encoding/json (whose exact-match preference cannot matter here: no two
// names fold together).
func lookupField(key []byte) wireField {
	for i, name := range wireFieldNames {
		if bytes.EqualFold(key, name) {
			return 1 << i
		}
	}
	return 0
}

var (
	keyTransactions = []byte("transactions")
	keyIngested     = []byte("ingested")
)

// maxWireDepth is encoding/json's nesting limit.
const maxWireDepth = 10000

// scenarioInvalid marks a row whose scenario member named no scenario.
// It is resolved after the scan, not at the member, because a later
// duplicate member may still replace it.
const scenarioInvalid = decision.Scenario(0xFF)

// wireError is a malformed-body error: what was wrong and where.
type wireError struct {
	msg string
	off int
}

func (e *wireError) Error() string { return e.msg + " at offset " + strconv.Itoa(e.off) }

// WireItem is one element of a batch array located by SplitTransactions
// or SplitItems: body[Start:End] is its JSON text. ID and From are the
// transaction's routing members (zero when absent, and for SplitItems).
type WireItem struct {
	Start, End int
	ID         int64
	From       int32
}

// wireDecoder is the scanner's state over one body, plus the target it
// fills: decoded rows for the shard handlers, raw element ranges for the
// router.
type wireDecoder struct {
	buf []byte
	pos int

	// fields are the transaction members decoded with their types; the
	// rest are unknown members. Zero makes array elements opaque values.
	fields wireField

	// Decode target. len(txns) is how many rows this body has touched so
	// far, which can exceed n, the length of the last "transactions"
	// array: like json.Unmarshal into a slice, a repeated array decodes
	// over the rows of the one before it.
	txns      []txn.Transaction
	scenarios []decision.Scenario
	max       int // rows kept; elements past it are checked and counted only
	n         int
	scErr     error // why a row holds scenarioInvalid

	// Split target.
	split bool
	items []WireItem

	spare   txn.Transaction // row of an element that is not kept
	spareSc decision.Scenario
	keybuf  []byte // unquoted form of a key or string that had escapes
}

func (d *wireDecoder) fail(msg string) error { return &wireError{msg, d.pos} }

// cur returns the byte at the cursor, 0 at the end of the body.
func (d *wireDecoder) cur() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// peek skips whitespace and returns the byte at the cursor.
func (d *wireDecoder) peek() byte {
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; c {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// end requires that only whitespace follows the top-level value.
func (d *wireDecoder) end() error {
	d.peek()
	if d.pos < len(d.buf) {
		return d.fail("invalid character after top-level value")
	}
	return nil
}

// lit consumes the literal s.
func (d *wireDecoder) lit(s string) error {
	if len(d.buf)-d.pos < len(s) || string(d.buf[d.pos:d.pos+len(s)]) != s {
		return d.fail("invalid literal")
	}
	d.pos += len(s)
	return nil
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// str consumes the string starting at the cursor and returns the bytes
// between its quotes, escapes intact; esc reports whether there are any.
func (d *wireDecoder) str() (raw []byte, esc bool, err error) {
	start := d.pos + 1
	for i := start; i < len(d.buf); i++ {
		switch c := d.buf[i]; {
		case c == '"':
			d.pos = i + 1
			return d.buf[start:i], esc, nil
		case c == '\\':
			esc = true
			i++
			if i >= len(d.buf) {
				break
			}
			switch d.buf[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(d.buf)-i < 5 || !isHex(d.buf[i+1]) || !isHex(d.buf[i+2]) || !isHex(d.buf[i+3]) || !isHex(d.buf[i+4]) {
					d.pos = i
					return nil, false, d.fail("invalid \\u escape in string")
				}
				i += 4
			default:
				d.pos = i
				return nil, false, d.fail("invalid escape in string")
			}
		case c < 0x20:
			d.pos = i
			return nil, false, d.fail("control character in string")
		}
	}
	d.pos = len(d.buf)
	return nil, false, d.fail("unexpected end of input in string")
}

// text is str with the escapes decoded (into keybuf, valid until the
// next call).
func (d *wireDecoder) text() ([]byte, error) {
	raw, esc, err := d.str()
	if esc {
		d.keybuf = unquote(d.keybuf[:0], raw)
		raw = d.keybuf
	}
	return raw, err
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote appends the decoded form of a string body that str accepted,
// with encoding/json's leniency: an unpaired surrogate escape or invalid
// UTF-8 becomes U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' {
			if c < utf8.RuneSelf {
				dst = append(dst, c)
				i++
				continue
			}
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
			continue
		}
		c = raw[i+1]
		i += 2
		switch c {
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		case 'u':
			r := hex4(raw[i:])
			i += 4
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if len(raw)-i >= 6 && raw[i] == '\\' && raw[i+1] == 'u' {
					r2 = hex4(raw[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
					i += 6
				}
			}
			dst = utf8.AppendRune(dst, r)
			continue
		}
		dst = append(dst, c) // '"', '\\', '/' stand for themselves
	}
	return dst
}

// number consumes a JSON number and reports whether it is an integer
// literal (no fraction, no exponent).
func (d *wireDecoder) number() (integer bool, err error) {
	i := d.pos
	digits := func() bool {
		start := i
		for i < len(d.buf) && '0' <= d.buf[i] && d.buf[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(d.buf) && d.buf[i] == '-' {
		i++
	}
	if i < len(d.buf) && d.buf[i] == '0' {
		i++
	} else if !digits() {
		d.pos = i
		return false, d.fail("invalid number")
	}
	integer = true
	if i < len(d.buf) && d.buf[i] == '.' {
		i++
		integer = false
		if !digits() {
			d.pos = i
			return false, d.fail("invalid number")
		}
	}
	if i < len(d.buf) && (d.buf[i] == 'e' || d.buf[i] == 'E') {
		i++
		integer = false
		if i < len(d.buf) && (d.buf[i] == '+' || d.buf[i] == '-') {
			i++
		}
		if !digits() {
			d.pos = i
			return false, d.fail("invalid number")
		}
	}
	d.pos = i
	return integer, nil
}

// integer consumes an integer literal that fits a field of the given
// width, by encoding/json's rule: the literal must parse under
// strconv.ParseInt or ParseUint, which refuse 1.0, 1e3 and, unsigned, -0.
func (d *wireDecoder) integer(bits int, signed bool) (v int64, err error) {
	start := d.pos
	isInt, err := d.number()
	if err != nil {
		return 0, err
	}
	if lit := string(d.buf[start:d.pos]); signed {
		v, err = strconv.ParseInt(lit, 10, bits)
	} else {
		var u uint64
		u, err = strconv.ParseUint(lit, 10, bits)
		v = int64(u)
	}
	if !isInt || err != nil {
		d.pos = start
		return 0, d.fail("number is not an integer of the field's range")
	}
	return v, nil
}

// float32 consumes a number that fits a float32 field.
func (d *wireDecoder) float32() (float32, error) {
	start := d.pos
	if _, err := d.number(); err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(d.buf[start:d.pos]), 32)
	if err != nil {
		d.pos = start
		return 0, d.fail("number overflows the field")
	}
	return float32(f), nil
}

// member moves to the next member of the object the cursor is inside
// (first: none has been read yet) and returns its key, unquoted and valid
// until the next call, leaving the cursor at its value. done reports the
// closing brace instead.
func (d *wireDecoder) member(first bool) (key []byte, done bool, err error) {
	c := d.peek()
	switch {
	case c == '}':
		d.pos++
		return nil, true, nil
	case first:
	case c == ',':
		d.pos++
		c = d.peek()
	default:
		return nil, false, d.fail("expected ',' or '}' after object member")
	}
	if c != '"' {
		return nil, false, d.fail("expected object key string")
	}
	if key, err = d.text(); err != nil {
		return nil, false, err
	}
	if d.peek() != ':' {
		return nil, false, d.fail("expected ':' after object key")
	}
	d.pos++
	d.peek()
	return key, false, nil
}

// element moves to the next element of the array the cursor is inside,
// leaving the cursor at it; done reports the closing bracket instead.
func (d *wireDecoder) element(first bool) (done bool, err error) {
	c := d.peek()
	switch {
	case c == ']':
		d.pos++
		return true, nil
	case first:
		return false, nil
	case c == ',':
		d.pos++
		d.peek()
		return false, nil
	}
	return false, d.fail("expected ',' or ']' after array element")
}

// skip consumes any value, checking that it is valid JSON. depth is the
// nesting level a container at the cursor would have.
func (d *wireDecoder) skip(depth int) error {
	switch c := d.cur(); {
	case c == '{' || c == '[':
		if depth > maxWireDepth {
			return d.fail("exceeded max depth")
		}
		d.pos++
		for first := true; ; first = false {
			var done bool
			var err error
			if c == '{' {
				_, done, err = d.member(first)
			} else {
				done, err = d.element(first)
			}
			if err != nil || done {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.lit("true")
	case c == 'f':
		return d.lit("false")
	case c == 'n':
		return d.lit("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	case d.pos >= len(d.buf):
		return d.fail("unexpected end of input")
	}
	return d.fail("invalid character looking for beginning of value")
}

// item decodes one transaction object into t and sc; null leaves them
// as they are. depth is the object's nesting level.
func (d *wireDecoder) item(t *txn.Transaction, sc *decision.Scenario, depth int) error {
	switch d.cur() {
	case 'n':
		return d.lit("null")
	case '{':
	default:
		return d.typeError("transaction", "an object", depth)
	}
	d.pos++
	for first := true; ; first = false {
		key, done, err := d.member(first)
		if err != nil || done {
			return err
		}
		f := lookupField(key) & d.fields
		if f == 0 {
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			continue
		}
		if d.cur() == 'n' {
			if err := d.lit("null"); err != nil {
				return err
			}
			continue
		}
		if c := d.cur(); f&(fieldScenario|fieldFraud) == 0 && c != '-' && (c < '0' || c > '9') {
			return d.typeError(string(wireFieldNames[bits.TrailingZeros16(uint16(f))]), "a number", depth+1)
		}
		var v int64
		switch f {
		case fieldID:
			v, err = d.integer(64, true)
			t.ID = txn.TxnID(v)
		case fieldDay:
			v, err = d.integer(strconv.IntSize, true)
			t.Day = txn.Day(v)
		case fieldSec:
			v, err = d.integer(32, true)
			t.Sec = int32(v)
		case fieldFrom:
			v, err = d.integer(32, true)
			t.From = txn.UserID(v)
		case fieldTo:
			v, err = d.integer(32, true)
			t.To = txn.UserID(v)
		case fieldAmount:
			t.Amount, err = d.float32()
		case fieldTransCity:
			v, err = d.integer(16, false)
			t.TransCity = uint16(v)
		case fieldDeviceRisk:
			t.DeviceRisk, err = d.float32()
		case fieldIPRisk:
			t.IPRisk, err = d.float32()
		case fieldChannel:
			v, err = d.integer(8, false)
			t.Channel = txn.Channel(v)
		case fieldScenario:
			if d.cur() != '"' {
				return d.typeError("scenario", "a string", depth+1)
			}
			var name []byte
			if name, err = d.text(); err == nil {
				if e := sc.UnmarshalText(name); e != nil {
					*sc, d.scErr = scenarioInvalid, e
				}
			}
		case fieldFraud:
			switch d.cur() {
			case 't':
				t.Fraud, err = true, d.lit("true")
			case 'f':
				t.Fraud, err = false, d.lit("false")
			default:
				return d.typeError("fraud", "a boolean", depth+1)
			}
		}
		if err != nil {
			return err
		}
	}
}

// typeError reports a member holding a value of the wrong JSON type. It
// skips the value first so that a syntax error inside it is reported as
// such.
func (d *wireDecoder) typeError(name, want string, depth int) error {
	start := d.pos
	if err := d.skip(depth); err != nil {
		return err
	}
	d.pos = start
	return d.fail(name + " is not " + want)
}

// slot returns the row element i of a transactions array decodes into.
func (d *wireDecoder) slot(i int) (*txn.Transaction, *decision.Scenario) {
	if d.split || i >= d.max {
		d.spare, d.spareSc = txn.Transaction{}, decision.ScenarioDefault
		return &d.spare, &d.spareSc
	}
	if i == len(d.txns) {
		d.txns = append(d.txns, txn.Transaction{})
		d.scenarios = append(d.scenarios, decision.ScenarioDefault)
	}
	return &d.txns[i], &d.scenarios[i]
}

// array decodes the batch array at the cursor; null is an empty batch.
func (d *wireDecoder) array() (err error) {
	d.n, d.items = 0, d.items[:0]
	switch d.cur() {
	case 'n':
		err = d.lit("null")
	case '[':
		d.pos++
		d.n, err = d.elements()
	default:
		err = d.typeError("batch member", "an array", 2)
	}
	if d.n == 0 { // encoding/json gives an empty batch a fresh slice: later duplicates start from zeroed rows
		d.txns, d.scenarios = d.txns[:0], d.scenarios[:0]
	}
	return err
}

// elements decodes the elements of the array the cursor is inside and
// returns how many there were.
func (d *wireDecoder) elements() (int, error) {
	for i := 0; ; i++ {
		done, err := d.element(i == 0)
		if err != nil || done {
			return i, err
		}
		start := d.pos
		t, sc := d.slot(i)
		if d.fields == 0 {
			err = d.skip(3)
		} else {
			err = d.item(t, sc, 3)
		}
		if err != nil {
			return i, err
		}
		if d.split {
			d.items = append(d.items, WireItem{Start: start, End: d.pos, ID: int64(t.ID), From: int32(t.From)})
		}
	}
}

// batch decodes a {"<key>": [...]} document.
func (d *wireDecoder) batch(key []byte) error {
	switch d.peek() {
	case 'n':
		if err := d.lit("null"); err != nil {
			return err
		}
	case '{':
		d.pos++
		for first := true; ; first = false {
			k, done, err := d.member(first)
			if err != nil {
				return err
			}
			if done {
				break
			}
			if bytes.EqualFold(k, key) {
				err = d.array()
			} else {
				err = d.skip(2)
			}
			if err != nil {
				return err
			}
		}
	default:
		return d.typeError("batch", "an object", 1)
	}
	return d.end()
}

// one decodes a document that is a single transaction object.
func (d *wireDecoder) one() error {
	t, sc := d.slot(0)
	d.peek()
	if err := d.item(t, sc, 1); err != nil {
		return err
	}
	d.n = 1
	return d.end()
}

// SplitTransactions scans a batch request body and appends one WireItem
// per element of its "transactions" array to dst[:0], decoding only the
// routing members id and from. Every other member rides along unread —
// but checked: a body SplitTransactions accepts is valid JSON with an
// object or null for every transaction, so sub-batches can be built by
// appending the ranges.
func SplitTransactions(body []byte, dst []WireItem) ([]WireItem, error) {
	d := wireDecoder{buf: body, fields: fieldID | fieldFrom, split: true, items: dst[:0]}
	err := d.batch(keyTransactions)
	return d.items, err
}

// SplitItems scans a batch response body and appends one WireItem per
// element of its key array to dst[:0]. Elements are opaque.
func SplitItems(body []byte, key string, dst []WireItem) ([]WireItem, error) {
	d := wireDecoder{buf: body, split: true, items: dst[:0]}
	err := d.batch([]byte(key))
	return d.items, err
}

// PeekTxn reads the routing members of a single-transaction request
// body, checking the rest as SplitTransactions does.
func PeekTxn(body []byte) (id int64, from int32, err error) {
	d := wireDecoder{buf: body, fields: fieldID | fieldFrom, split: true}
	err = d.one()
	return int64(d.spare.ID), int32(d.spare.From), err
}

// DecodeIngestResponse reads the count out of an {"ingested": n} body.
func DecodeIngestResponse(body []byte) (int, error) {
	d := wireDecoder{buf: body}
	if d.peek() != '{' {
		return 0, d.fail("ingest response is not an object")
	}
	d.pos++
	var n int64
	for first := true; ; first = false {
		k, done, err := d.member(first)
		if err != nil {
			return 0, err
		}
		if done {
			return int(n), d.end()
		}
		if bytes.EqualFold(k, keyIngested) && d.cur() != 'n' {
			n, err = d.integer(strconv.IntSize, true)
		} else {
			err = d.skip(2)
		}
		if err != nil {
			return 0, err
		}
	}
}

// ReadBody appends r to dst until EOF. size is the length the sender
// declared (an HTTP Content-Length; <= 0 when unknown), so the body
// lands in one allocation instead of io.ReadAll's doublings.
func ReadBody(dst []byte, r io.Reader, size int64) ([]byte, error) {
	// A header is a claim, not data: reserve at most this much ahead of
	// the bytes actually arriving.
	const maxReserve = 1 << 20
	if size > 0 {
		dst = slices.Grow(dst, int(min(size, maxReserve))+1) // +1: room for the Read that returns io.EOF
	}
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 512)
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// jsonType is the data plane's constant Content-Type value: shared, it
// costs no []string per response.
var jsonType = []string{"application/json"}

// WriteBody answers 200 with an encoded JSON body of known length.
func WriteBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonType
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// wireBuf is one call's codec scratch on a shard: the rows decoded from
// its body, the engine verb's results and the answer encoded from them. It
// comes from wirePool and goes back when the call is answered, so nothing
// reachable from it may outlive the call; the engine verbs copy what they
// keep. The body and the answer buffer are the caller's: release drops
// them, and clears the results so a pooled buffer pins no swapped-out
// bundle's or policy's strings.
type wireBuf struct {
	wireDecoder
	results
	out []byte
}

var wirePool = sync.Pool{New: func() any { return new(wireBuf) }}

func (wb *wireBuf) release() {
	wb.buf, wb.out = nil, nil
	clear(wb.verdicts)
	clear(wb.decisions)
	clear(wb.members)
	wirePool.Put(wb)
}

// decode decodes body as one transaction or as a batch of at most max,
// with the given optional members. After a nil return wb.txns and
// wb.scenarios hold the rows; a batch longer than max leaves its length
// in wb.n and only max rows.
func (wb *wireBuf) decode(body []byte, fields wireField, batch bool, max int) (err error) {
	wb.buf, wb.pos, wb.fields, wb.max, wb.n, wb.scErr = body, 0, fields, max, 0, nil
	wb.txns, wb.scenarios = wb.txns[:0], wb.scenarios[:0]
	if batch {
		err = wb.batch(keyTransactions)
	} else {
		err = wb.one()
	}
	if n := min(wb.n, max); err == nil {
		wb.txns, wb.scenarios = wb.txns[:n], wb.scenarios[:n]
	}
	return err
}

// scenarioError reports the first row whose scenario member named no
// scenario.
func (wb *wireBuf) scenarioError() (row int, err error) {
	if wb.scErr != nil {
		if i := slices.Index(wb.scenarios, scenarioInvalid); i >= 0 {
			return i, wb.scErr
		}
	}
	return 0, nil
}

// encodeError wraps a value the response encoders cannot represent, so
// the handler can tell it from an engine error.
type encodeError struct{ err error }

func (e *encodeError) Error() string { return "encode response: " + e.err.Error() }
func (e *encodeError) Unwrap() error { return e.err }

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way json.Marshal does:
// <, >, & and U+2028/9 escaped, invalid UTF-8 written as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f in json.Marshal's float64 format (ES6 number to
// string: exponent form below 1e-6 and from 1e21).
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendVerdictMembers appends a Verdict's members without the braces,
// so a Decision can continue the same object.
func appendVerdictMembers(dst []byte, v *Verdict) ([]byte, error) {
	var err error
	dst = append(dst, `"txn_id":`...)
	dst = strconv.AppendInt(dst, int64(v.TxnID), 10)
	dst = append(dst, `,"score":`...)
	if dst, err = appendFloat(dst, v.Score); err != nil {
		return dst, err
	}
	dst = append(dst, `,"fraud":`...)
	dst = strconv.AppendBool(dst, v.Fraud)
	dst = append(dst, `,"model_version":`...)
	dst = appendString(dst, v.Version)
	dst = append(dst, `,"latency_ns":`...)
	dst = strconv.AppendInt(dst, int64(v.Latency), 10)
	if len(v.Members) > 0 {
		dst = append(dst, `,"members":[`...)
		for i := range v.Members {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"name":`...)
			dst = appendString(dst, v.Members[i].Name)
			dst = append(dst, `,"score":`...)
			if dst, err = appendFloat(dst, v.Members[i].Score); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return dst, nil
}

func appendVerdict(dst []byte, v *Verdict) ([]byte, error) {
	dst, err := appendVerdictMembers(append(dst, '{'), v)
	return append(dst, '}'), err
}

func appendDecision(dst []byte, d *Decision) ([]byte, error) {
	dst, err := appendVerdictMembers(append(dst, '{'), &d.Verdict)
	if err != nil {
		return dst, err
	}
	if int(d.Scenario) >= decision.NumScenarios {
		_, err := d.Scenario.MarshalText()
		return dst, err
	}
	if int(d.Action) >= decision.NumActions {
		_, err := d.Action.MarshalText()
		return dst, err
	}
	dst = append(dst, `,"scenario":"`...)
	dst = append(dst, d.Scenario.String()...)
	dst = append(dst, `","action":"`...)
	dst = append(dst, d.Action.String()...)
	dst = append(dst, `","reason":`...)
	dst = appendString(dst, d.Reason)
	if d.RuleOverride {
		dst = append(dst, `,"rule_override":true`...)
	}
	dst = append(dst, `,"policy_version":`...)
	dst = appendString(dst, d.PolicyVersion)
	return append(dst, '}'), nil
}

// The put methods encode one response into wb.out (reusing its
// storage), newline included.

func (wb *wireBuf) put(out []byte, err error) error {
	wb.out = append(out, '\n')
	if err != nil {
		return &encodeError{err}
	}
	return nil
}

func (wb *wireBuf) putVerdict(v *Verdict) error { return wb.put(appendVerdict(wb.out[:0], v)) }

func (wb *wireBuf) putDecision(d *Decision) error { return wb.put(appendDecision(wb.out[:0], d)) }

func (wb *wireBuf) putVerdicts(vs []Verdict) error {
	return putRows(wb, `{"verdicts":[`, vs, appendVerdict)
}

func (wb *wireBuf) putDecisions(ds []Decision) error {
	return putRows(wb, `{"decisions":[`, ds, appendDecision)
}

func putRows[T any](wb *wireBuf, open string, rows []T, appendRow func([]byte, *T) ([]byte, error)) error {
	out, err := append(wb.out[:0], open...), error(nil)
	for i := range rows {
		if i > 0 {
			out = append(out, ',')
		}
		if out, err = appendRow(out, &rows[i]); err != nil {
			break
		}
	}
	return wb.put(append(out, "]}"...), err)
}

func (wb *wireBuf) putIngested(n int) error {
	out := append(wb.out[:0], `{"ingested":`...)
	return wb.put(append(strconv.AppendInt(out, int64(n), 10), '}'), nil)
}
