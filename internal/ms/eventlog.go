// Durability plane of the scoring engine: an engine built WithEventLog
// appends every state-changing event — ingested transactions, drift
// score observations, shadow comparisons, bundle swaps — to an
// internal/eventlog log *before* applying it to in-memory state
// (log-then-apply), and rebuilds that state on startup by loading the
// newest snapshot and replaying the log tail. Because the log order is
// the apply order (both happen under elogMu) and every replayed event
// carries the exact values the live process applied (score bits, not
// re-scored inputs), the rebuilt streaming window, drift monitor and
// shadow meter are bitwise-identical to the pre-crash process.
package ms

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"titant/internal/decision"
	"titant/internal/eventlog"
	"titant/internal/txn"
)

var le = binary.LittleEndian

func f64bits(v float64) uint64     { return math.Float64bits(v) }
func f64frombits(b uint64) float64 { return math.Float64frombits(b) }

// engineConsumer is the log consumer name under which the engine commits
// its own apply position (always the snapshot end: applies are
// synchronous, so everything below a snapshot is consumed).
const engineConsumer = "engine"

// DefaultSnapshotEvery is how many log events accumulate between derived-
// state snapshots on an engine built WithEventLog but no override.
const DefaultSnapshotEvery = 1 << 16

// StreamSnapshotter is the optional snapshot surface of a
// StreamAggregates implementation (satisfied by stream.Store). When the
// configured window implements it, engine snapshots include the window
// state and recovery fast-forwards past compacted log prefixes; when it
// does not, snapshotting is disabled and recovery replays the full log.
type StreamSnapshotter interface {
	WriteState(w io.Writer) error
	RestoreState(r io.Reader) error
}

// WithEventLog attaches the durable event log rooted at dir: Ingest and
// IngestBatch become log-then-apply, scoring logs its drift observations
// and shadow comparisons, SetBundle logs the swap, and New recovers the
// engine's derived state from the directory before serving. opts tune
// the log (fsync batching, segment rotation, retention).
func WithEventLog(dir string, opts ...eventlog.Option) Option {
	return func(s *Server) {
		s.elogDir = dir
		s.elogOpts = opts
		s.elogSnapEvery = DefaultSnapshotEvery
	}
}

// WithSnapshotEvery sets how many log events accumulate between derived-
// state snapshots (default DefaultSnapshotEvery). n <= 0 disables
// snapshotting: recovery replays the full log and segments are never
// compacted away.
func WithSnapshotEvery(n int64) Option {
	return func(s *Server) {
		if n <= 0 {
			s.elogSnapEvery = 0
		} else {
			s.elogSnapEvery = uint64(n)
		}
	}
}

// EventLogStats snapshots the log counters (zero value without a log).
func (s *Server) EventLogStats() eventlog.Stats {
	if s.elog == nil {
		return eventlog.Stats{}
	}
	return s.elog.Stats()
}

// EventLogReplayed reports how many records startup recovery replayed.
func (s *Server) EventLogReplayed() int64 { return s.elogReplayed.Load() }

// Snapshot forces a derived-state snapshot at the current log position,
// regardless of the periodic cadence. No-op without an event log.
func (s *Server) Snapshot() error {
	if s.elog == nil {
		return nil
	}
	s.elogMu.Lock()
	defer s.elogMu.Unlock()
	return s.snapshotLocked()
}

// openEventLog opens the log directory and rebuilds derived state:
// newest intact snapshot first (stream window, drift monitor, shadow
// meter, negative-cache keys), then a replay of every record at or past
// the snapshot end. Called from New, before the engine is shared, so
// replay applies state directly without elogMu.
func (s *Server) openEventLog() error {
	l, err := eventlog.Open(s.elogDir, s.elogOpts...)
	if err != nil {
		return err
	}
	// A window that cannot snapshot forces full-log replay: a snapshot
	// missing the stream section would silently lose every ingest below
	// its end offset once compaction trusts it.
	if s.stream != nil {
		if _, ok := s.stream.(StreamSnapshotter); !ok {
			s.elogSnapEvery = 0
		}
	}
	end, sections, err := eventlog.LoadSnapshot(s.elogDir)
	if err != nil {
		l.Close()
		return fmt.Errorf("ms: load snapshot: %w", err)
	}
	if sections != nil {
		if err := s.restoreSnapshot(sections); err != nil {
			l.Close()
			return err
		}
	}
	var replayed int64
	next, err := l.ReadFrom(end, func(r eventlog.Record) error {
		replayed++
		return s.applyRecord(r)
	})
	if err != nil {
		l.Close()
		return fmt.Errorf("ms: replay: %w", err)
	}
	s.elog = l
	s.elogSnapBase = end
	s.elogReplayed.Store(replayed)
	_ = next
	return nil
}

// applyRecord replays one log record into derived state. It must apply
// exactly what the live process applied — decoded values, never
// re-derived ones — or recovery stops being bitwise.
func (s *Server) applyRecord(r eventlog.Record) error {
	switch r.Kind {
	case eventlog.KindTxn:
		t, err := txn.DecodeRecord(r.Payload)
		if err != nil {
			return fmt.Errorf("ms: replay offset %d: %w", r.Offset, err)
		}
		if s.stream != nil {
			s.stream.Ingest(&t)
		}
		s.dropNegative(&t)
	case eventlog.KindScore:
		mon := s.drift.Load()
		if mon == nil {
			return nil // drift disabled this run; observations have no home
		}
		return replayScores(mon, r.Payload, r.Offset)
	case eventlog.KindShadow:
		if s.shadow == nil {
			return nil
		}
		champ, chall, champFraud, challFraud, err := decodeShadowEvent(r.Payload)
		if err != nil {
			return fmt.Errorf("ms: replay offset %d: %w", r.Offset, err)
		}
		s.shadow.meter.Record(champ, chall, champFraud, challFraud)
	case eventlog.KindReset:
		// Mirror SetBundle's state effects. The bundle itself is the
		// operator's to supply at startup; recovery is exact when the
		// process restarts with the bundle it crashed with (the normal
		// case — swaps are rare and bundles persist independently).
		if s.driftCfg != nil {
			s.drift.Store(decision.NewMonitor(*s.driftCfg, driftSeriesNames(s.bundle)))
		}
		if s.shadow != nil {
			s.shadow.championSwapped()
		}
		if s.cache != nil {
			s.cache.Purge()
		}
	default:
		// Unknown kinds from a newer writer are skipped, not fatal: the
		// envelope exists so old readers can keep their exactness for the
		// kinds they do understand.
	}
	return nil
}

// restoreSnapshot loads each snapshot section into its configured
// subsystem. Sections for subsystems this run does not configure are
// ignored (the subsystem starts empty); a section that is present but
// does not match the configured shape fails closed.
func (s *Server) restoreSnapshot(sections map[string][]byte) error {
	if sec, ok := sections["stream"]; ok && s.stream != nil {
		ss, can := s.stream.(StreamSnapshotter)
		if !can {
			return fmt.Errorf("ms: snapshot has a stream section but the configured window cannot restore it")
		}
		if err := ss.RestoreState(bytes.NewReader(sec)); err != nil {
			return fmt.Errorf("ms: restore stream state: %w", err)
		}
	}
	if sec, ok := sections["drift"]; ok {
		if mon := s.drift.Load(); mon != nil {
			if err := mon.RestoreState(bytes.NewReader(sec)); err != nil {
				return fmt.Errorf("ms: restore drift state: %w", err)
			}
		}
	}
	if sec, ok := sections["shadow"]; ok && s.shadow != nil {
		if err := s.shadow.meter.RestoreState(bytes.NewReader(sec)); err != nil {
			return fmt.Errorf("ms: restore shadow state: %w", err)
		}
	}
	if sec, ok := sections["negcache"]; ok && s.cache != nil {
		keys, err := decodeNegKeys(sec)
		if err != nil {
			return fmt.Errorf("ms: restore negative-cache keys: %w", err)
		}
		for _, u := range keys {
			s.cache.InsertNegative(u)
		}
	}
	return nil
}

// ingestLocked is the logged ingest path: append the transaction record,
// then apply it to the window and cache, all under elogMu so the log
// order is the apply order. An append failure applies nothing — a
// record the log cannot replay must not exist in memory.
func (s *Server) ingestLocked(t *txn.Transaction) error {
	payload := s.elogScratch(txn.RecordSize)
	txn.EncodeRecord(payload, t)
	var flags uint8
	if t.Fraud {
		flags = eventlog.FlagFraud
	}
	if _, err := s.elog.Append(eventlog.KindTxn, flags, time.Now().UnixNano(), payload); err != nil {
		return fmt.Errorf("ms: ingest append: %w", err)
	}
	s.stream.Ingest(t)
	s.dropNegative(t)
	return nil
}

// recordScores feeds one scoring pass's scores into the drift monitor,
// logging them first when the engine has an event log. mon is the
// monitor captured by scoringView; if a bundle swap replaced it in the
// meantime the pass is skipped entirely — the old monitor is already
// unreachable, and logging its observations would make replay feed them
// to the new monitor, a divergence the live process never had.
func (s *Server) recordScores(mon *decision.Monitor, combined []float64, memberScores [][]float64) {
	if mon == nil {
		return
	}
	if s.elog == nil {
		observeDrift(mon, combined, memberScores)
		return
	}
	s.elogMu.Lock()
	defer s.elogMu.Unlock()
	if mon != s.drift.Load() {
		return
	}
	payload := encodeScoreEvent(s.elogScratch(0), mon, combined, memberScores)
	s.elogBuf = payload // keep a grown buffer for the next pass
	if _, err := s.elog.Append(eventlog.KindScore, 0, time.Now().UnixNano(), payload); err != nil {
		s.elogErrs.Add(1)
		return
	}
	observeDrift(mon, combined, memberScores)
}

// recordShadow records one champion/challenger comparison, logging it
// first when the engine has an event log. The epoch re-check under
// elogMu makes the comparison and SetBundle's KindReset strictly
// ordered: a comparison is logged (and counted) only if no reset has
// been logged since it was scored.
func (s *Server) recordShadow(r *shadowRunner, j *shadowJob, challScore float64, challFraud bool) {
	if s.elog == nil {
		r.meter.Record(j.champScore, challScore, j.champFraud, challFraud)
		return
	}
	s.elogMu.Lock()
	defer s.elogMu.Unlock()
	if j.epoch != r.epoch.Load() {
		return // swap landed mid-score; the meter this belonged to is gone
	}
	payload := encodeShadowEvent(s.elogScratch(17), j.champScore, challScore, j.champFraud, challFraud)
	if _, err := s.elog.Append(eventlog.KindShadow, 0, time.Now().UnixNano(), payload); err != nil {
		s.elogErrs.Add(1)
		return
	}
	r.meter.Record(j.champScore, challScore, j.champFraud, challFraud)
}

// logResetLocked appends the bundle-swap marker. Caller holds elogMu
// (SetBundle, which performs the monitor/meter reset in the same
// critical section so no score or shadow event can interleave).
func (s *Server) logResetLocked(version string) {
	if _, err := s.elog.Append(eventlog.KindReset, 0, time.Now().UnixNano(), []byte(version)); err != nil {
		s.elogErrs.Add(1)
	}
}

// maybeSnapshotLocked writes a derived-state snapshot once enough events
// have accumulated since the last one. Caller holds elogMu.
func (s *Server) maybeSnapshotLocked() error {
	if s.elogSnapEvery == 0 {
		return nil
	}
	if s.elog.NextOffset()-s.elogSnapBase < s.elogSnapEvery {
		return nil
	}
	return s.snapshotLocked()
}

// snapshotLocked captures every stateful subsystem as of the current log
// position and persists it. The log is fsynced first so the snapshot
// never claims coverage of records a crash could still lose, and the
// engine's consumer offset advances with it so compaction can reclaim
// the covered segments.
func (s *Server) snapshotLocked() error {
	if err := s.elog.Sync(); err != nil {
		return fmt.Errorf("ms: snapshot sync: %w", err)
	}
	end := s.elog.NextOffset()
	var sections []eventlog.Section
	if ss, ok := s.stream.(StreamSnapshotter); ok && s.stream != nil {
		var buf bytes.Buffer
		if err := ss.WriteState(&buf); err != nil {
			return fmt.Errorf("ms: snapshot stream state: %w", err)
		}
		sections = append(sections, eventlog.Section{Name: "stream", Data: buf.Bytes()})
	}
	if mon := s.drift.Load(); mon != nil {
		var buf bytes.Buffer
		if err := mon.WriteState(&buf); err != nil {
			return fmt.Errorf("ms: snapshot drift state: %w", err)
		}
		sections = append(sections, eventlog.Section{Name: "drift", Data: buf.Bytes()})
	}
	if s.shadow != nil {
		var buf bytes.Buffer
		if err := s.shadow.meter.WriteState(&buf); err != nil {
			return fmt.Errorf("ms: snapshot shadow state: %w", err)
		}
		sections = append(sections, eventlog.Section{Name: "shadow", Data: buf.Bytes()})
	}
	if s.cache != nil {
		sections = append(sections, eventlog.Section{Name: "negcache", Data: encodeNegKeys(s.cache.NegativeKeys())})
	}
	if err := s.elog.CommitOffset(engineConsumer, end); err != nil {
		return err
	}
	if err := s.elog.WriteSnapshot(end, sections); err != nil {
		return err
	}
	s.elogSnapBase = end
	return nil
}

// elogScratch returns the reusable payload-encode buffer, sized to at
// least n. Caller holds elogMu; the buffer's contents are consumed by
// Append before the lock is released.
func (s *Server) elogScratch(n int) []byte {
	if cap(s.elogBuf) < n {
		s.elogBuf = make([]byte, 0, n+256)
	}
	return s.elogBuf[:n]
}

// Score-event payload: [rows u32][series u16] then rows*series float64
// bit patterns in exactly the order observeDrift feeds them (combined
// first, then each member), so replay is a flat walk.
func encodeScoreEvent(dst []byte, mon *decision.Monitor, combined []float64, memberScores [][]float64) []byte {
	withMembers := memberScores != nil && mon.NumSeries() == 1+len(memberScores)
	series := 1
	if withMembers {
		series += len(memberScores)
	}
	need := 6 + 8*len(combined)*series
	if cap(dst) < need {
		dst = make([]byte, 0, need)
	}
	dst = dst[:need]
	le.PutUint32(dst[0:], uint32(len(combined)))
	le.PutUint16(dst[4:], uint16(series))
	p := 6
	for i := range combined {
		le.PutUint64(dst[p:], f64bits(combined[i]))
		p += 8
		if withMembers {
			for k := range memberScores {
				le.PutUint64(dst[p:], f64bits(memberScores[k][i]))
				p += 8
			}
		}
	}
	return dst
}

// replayScores feeds a logged score event into mon. A series-count
// mismatch (the process restarted under a different bundle shape)
// degrades exactly like the live path's defence: only the combined
// series is fed.
func replayScores(mon *decision.Monitor, payload []byte, off uint64) error {
	if len(payload) < 6 {
		return fmt.Errorf("ms: replay offset %d: short score event", off)
	}
	rows := int(le.Uint32(payload[0:]))
	series := int(le.Uint16(payload[4:]))
	if series == 0 || len(payload) != 6+8*rows*series {
		return fmt.Errorf("ms: replay offset %d: score event geometry %dx%d does not match %d bytes",
			off, rows, series, len(payload))
	}
	withAll := series <= mon.NumSeries()
	p := 6
	for i := 0; i < rows; i++ {
		for k := 0; k < series; k++ {
			v := f64frombits(le.Uint64(payload[p:]))
			p += 8
			if k == 0 || withAll {
				mon.ObserveSeries(k, v)
			}
		}
	}
	return nil
}

// Shadow-event payload: champion score bits, challenger score bits, one
// flags byte (bit 0 champion fraud, bit 1 challenger fraud).
func encodeShadowEvent(dst []byte, champ, chall float64, champFraud, challFraud bool) []byte {
	le.PutUint64(dst[0:], f64bits(champ))
	le.PutUint64(dst[8:], f64bits(chall))
	dst[16] = 0
	if champFraud {
		dst[16] |= 1
	}
	if challFraud {
		dst[16] |= 2
	}
	return dst
}

func decodeShadowEvent(payload []byte) (champ, chall float64, champFraud, challFraud bool, err error) {
	if len(payload) != 17 {
		return 0, 0, false, false, fmt.Errorf("short shadow event: %d bytes", len(payload))
	}
	return f64frombits(le.Uint64(payload[0:])), f64frombits(le.Uint64(payload[8:])),
		payload[16]&1 != 0, payload[16]&2 != 0, nil
}

// Negative-cache section: [count u32] then count int32 user IDs.
func encodeNegKeys(keys []txn.UserID) []byte {
	buf := make([]byte, 4+4*len(keys))
	le.PutUint32(buf[0:], uint32(len(keys)))
	for i, u := range keys {
		le.PutUint32(buf[4+4*i:], uint32(u))
	}
	return buf
}

func decodeNegKeys(b []byte) ([]txn.UserID, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("short negcache section")
	}
	n := int(le.Uint32(b[0:]))
	if len(b) != 4+4*n {
		return nil, fmt.Errorf("negcache section: %d keys do not fit %d bytes", n, len(b))
	}
	keys := make([]txn.UserID, n)
	for i := range keys {
		keys[i] = txn.UserID(int32(le.Uint32(b[4+4*i:])))
	}
	return keys, nil
}
