// Package eventlog is the durability plane of the serving layer: an
// append-only, segmented event log that plays the Kafka role for a single
// node. Every event the Model Server must not lose — ingested
// transactions, score observations, shadow comparisons, bundle swaps —
// is appended here before it is applied to in-memory state, so a crashed
// process rebuilds its streaming window, drift baselines, and shadow
// tallies bitwise-identical by replaying the log (optionally fast-forwarded
// by a state snapshot; see snapshot.go).
//
// Layout of a log directory:
//
//	0000000000000000.seg   segment files, named by base offset
//	0000000000013880.seg
//	<name>.off             persisted consumer offsets
//	snapshot-<offset>.snap periodic derived-state snapshots
//
// Each segment starts with a 16-byte header (magic, version, base offset)
// followed by logio CRC32C-framed records. A record is an 18-byte
// envelope — monotonic offset, ingest timestamp, event kind, flags — plus
// an opaque payload (the txn codec record for ingest events). Appends go
// through a group-commit writer: records buffer in memory and fsync in
// batches, by interval or by byte threshold, so steady-state ingest pays
// amortised fsync cost instead of one fsync per transaction. Replay is
// torn-tail tolerant on the final segment (a crash mid-append loses only
// the unsynced suffix, never the intact prefix) and fails closed
// everywhere else: a CRC mismatch or offset discontinuity in a sealed
// segment is corruption, not a tail, and stops recovery with an error
// rather than serving phantom state.
package eventlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"titant/internal/logio"
)

// Event kinds. The log itself treats payloads as opaque; kinds exist so
// replay and inspection can dispatch without decoding.
const (
	// KindTxn is an ingested transaction; the payload is one txn codec
	// record and flag bit 0 mirrors the fraud label.
	KindTxn uint8 = 1
	// KindScore is a scoring observation: the per-series score values fed
	// to the drift monitor, logged so replay rebuilds the exact
	// baseline/live split without re-scoring.
	KindScore uint8 = 2
	// KindShadow is one champion/challenger comparison.
	KindShadow uint8 = 3
	// KindReset marks a bundle swap: replay resets the drift monitor and
	// shadow meter at this point, as the live engine did.
	KindReset uint8 = 4
)

// FlagFraud is the envelope flag bit mirroring a KindTxn fraud label.
const FlagFraud uint8 = 1

const (
	segMagic    = 0x544c4f47 // "TLOG"
	segVersion  = 1
	segHdrSize  = 16
	envSize     = 18
	segSuffix   = ".seg"
	offSuffix   = ".off"
	defaultPerm = 0o644
)

// Options tune the log; zero values take defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size.
	SegmentBytes int64
	// FsyncInterval is the maximum time an acknowledged append waits
	// before it is fsynced (the group-commit timer).
	FsyncInterval time.Duration
	// FsyncBytes fsyncs eagerly once this many unsynced bytes accumulate,
	// bounding the loss window under sustained load.
	FsyncBytes int64
	// BufferBytes sizes the in-memory append buffer.
	BufferBytes int
	// RetainSegments is the minimum number of segments Compact keeps,
	// regardless of snapshots and consumer progress.
	RetainSegments int
	// RetainAge, when positive, keeps sealed segments younger than this
	// even if they are compactable.
	RetainAge time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 50 * time.Millisecond
	}
	if o.FsyncBytes <= 0 {
		o.FsyncBytes = 1 << 20
	}
	if o.BufferBytes <= 0 {
		o.BufferBytes = 1 << 18
	}
	if o.RetainSegments <= 0 {
		o.RetainSegments = 2
	}
	return o
}

// Option mutates Options, mirroring the functional-option style used
// across the repo.
type Option func(*Options)

// WithSegmentBytes sets the segment rotation threshold.
func WithSegmentBytes(n int64) Option { return func(o *Options) { o.SegmentBytes = n } }

// WithFsyncInterval sets the group-commit timer.
func WithFsyncInterval(d time.Duration) Option { return func(o *Options) { o.FsyncInterval = d } }

// WithFsyncBytes sets the eager-fsync byte threshold.
func WithFsyncBytes(n int64) Option { return func(o *Options) { o.FsyncBytes = n } }

// WithRetainSegments sets the minimum segment count Compact keeps.
func WithRetainSegments(n int) Option { return func(o *Options) { o.RetainSegments = n } }

// WithRetainAge keeps sealed segments younger than d out of compaction.
func WithRetainAge(d time.Duration) Option { return func(o *Options) { o.RetainAge = d } }

// segmentRef is one segment file known to the log, ordered by base.
type segmentRef struct {
	base uint64
	path string
}

// Log is an open event log. Append/Sync/Close/Kill are safe for
// concurrent use; one Log owns its directory.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	segs     []segmentRef // all segments, sorted by base; last is active
	f        *os.File     // active segment
	buf      *bufWriter
	fw       *logio.Writer
	segBytes int64 // active segment size including header
	next     uint64
	unsynced int64
	killed   bool
	closed   bool

	consumers map[string]uint64 // last committed offset per consumer
	snapEnd   uint64            // end offset of the newest valid snapshot

	appended  atomic.Int64
	fsyncs    atomic.Int64
	bytes     atomic.Int64
	lastFsync atomic.Int64 // unix nanos of the last completed fsync

	scratch []byte

	quit chan struct{}
	wg   sync.WaitGroup
}

// bufWriter is a plain buffered writer whose buffer we can drop on Kill
// (bufio.Writer has no discard operation that survives reuse).
type bufWriter struct {
	f   *os.File
	buf []byte
}

func (b *bufWriter) Write(p []byte) (int, error) {
	if len(b.buf)+len(p) > cap(b.buf) {
		if err := b.flush(); err != nil {
			return 0, err
		}
	}
	if len(p) > cap(b.buf) {
		return b.f.Write(p)
	}
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *bufWriter) flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	_, err := b.f.Write(b.buf)
	b.buf = b.buf[:0]
	return err
}

func (b *bufWriter) discard() { b.buf = b.buf[:0] }

// Open opens (or creates) the log in dir, recovering from any torn tail
// left by a crash: the final segment is scanned, its intact prefix kept,
// and the file truncated to it before appends resume.
func Open(dir string, opts ...Option) (*Log, error) {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return openLog(dir, o)
}

func openLog(dir string, o Options) (*Log, error) {
	o = o.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventlog: mkdir: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: o, segs: segs, consumers: map[string]uint64{}, quit: make(chan struct{})}
	if len(segs) == 0 {
		if err := l.startSegment(0); err != nil {
			return nil, err
		}
	} else {
		last := segs[len(segs)-1]
		scan, err := scanSegment(last.path, last.base, nil)
		if err != nil {
			return nil, err
		}
		f, err := os.OpenFile(last.path, os.O_RDWR, defaultPerm)
		if err != nil {
			return nil, fmt.Errorf("eventlog: open segment: %w", err)
		}
		// Drop the torn tail before appending; an O_APPEND reopen would
		// wedge the garbage between old and new records forever.
		if err := f.Truncate(scan.CleanBytes); err != nil {
			f.Close()
			return nil, fmt.Errorf("eventlog: truncate torn tail: %w", err)
		}
		if _, err := f.Seek(scan.CleanBytes, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("eventlog: seek: %w", err)
		}
		l.f = f
		l.segBytes = scan.CleanBytes
		l.next = scan.End
		l.buf = &bufWriter{f: f, buf: make([]byte, 0, o.BufferBytes)}
		l.fw = logio.NewWriter(l.buf)
	}
	if err := l.loadConsumers(); err != nil {
		l.f.Close()
		return nil, err
	}
	if end, _, err := latestSnapshot(dir); err == nil {
		l.snapEnd = end
	}
	l.lastFsync.Store(time.Now().UnixNano())
	l.wg.Add(1)
	go l.syncLoop()
	return l, nil
}

// startSegment creates a fresh segment with the given base offset and
// makes it active. Caller holds mu (or is Open, pre-sharing).
func (l *Log) startSegment(base uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%016x%s", base, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, defaultPerm)
	if err != nil {
		return fmt.Errorf("eventlog: create segment: %w", err)
	}
	var hdr [segHdrSize]byte
	le.PutUint32(hdr[0:], segMagic)
	le.PutUint32(hdr[4:], segVersion)
	le.PutUint64(hdr[8:], base)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("eventlog: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("eventlog: sync segment header: %w", err)
	}
	l.f = f
	l.segBytes = segHdrSize
	l.next = base
	if l.buf == nil {
		l.buf = &bufWriter{f: f, buf: make([]byte, 0, l.opts.BufferBytes)}
	} else {
		l.buf.f = f
	}
	if l.fw == nil {
		l.fw = logio.NewWriter(l.buf)
	}
	l.segs = append(l.segs, segmentRef{base: base, path: path})
	return nil
}

// Append logs one event and returns its offset. The record is durable
// once the next group commit completes (Sync forces one); the append
// itself only buffers. Allocation-free in steady state.
func (l *Log) Append(kind, flags uint8, ts int64, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.killed {
		return 0, errors.New("eventlog: log is closed")
	}
	off := l.next
	need := envSize + len(payload)
	if cap(l.scratch) < need {
		l.scratch = make([]byte, 0, need+1024)
	}
	rec := l.scratch[:need]
	le.PutUint64(rec[0:], off)
	le.PutUint64(rec[8:], uint64(ts))
	rec[16] = kind
	rec[17] = flags
	copy(rec[envSize:], payload)
	n, err := l.fw.Append(rec)
	if err != nil {
		return 0, fmt.Errorf("eventlog: append: %w", err)
	}
	l.next++
	l.segBytes += int64(n)
	l.unsynced += int64(n)
	l.appended.Add(1)
	l.bytes.Add(int64(n))
	if l.unsynced >= l.opts.FsyncBytes {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return off, nil
}

// Sync forces a group commit: everything appended so far is flushed and
// fsynced before Sync returns.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.killed {
		return errors.New("eventlog: log is closed")
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if err := l.buf.flush(); err != nil {
		return fmt.Errorf("eventlog: flush: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("eventlog: fsync: %w", err)
	}
	l.unsynced = 0
	l.fsyncs.Add(1)
	l.lastFsync.Store(time.Now().UnixNano())
	return nil
}

// rotateLocked seals the active segment and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("eventlog: close segment: %w", err)
	}
	return l.startSegment(l.next)
}

// syncLoop is the group-commit timer: any appends older than
// FsyncInterval get fsynced on the next tick.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.quit:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && !l.killed && l.unsynced > 0 {
				_ = l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// Close flushes, fsyncs, and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed || l.killed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	cerr := l.f.Close()
	close(l.quit)
	l.mu.Unlock()
	l.wg.Wait()
	if err != nil {
		return err
	}
	return cerr
}

// Kill simulates a crash: buffered-but-unsynced appends are dropped and
// the file descriptor is closed without flushing, exactly the state a
// power cut at this instant would leave on disk. Test-harness hook for
// the kill/restart recovery suite; a production caller wants Close.
func (l *Log) Kill() {
	l.mu.Lock()
	if l.closed || l.killed {
		l.mu.Unlock()
		return
	}
	l.killed = true
	l.buf.discard()
	_ = l.f.Close()
	close(l.quit)
	l.mu.Unlock()
	l.wg.Wait()
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// NextOffset returns the offset the next append will receive.
func (l *Log) NextOffset() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Stats is the log's operational snapshot (its wire form is the
// /v1/stats "eventlog" section, ms.EventLogStats).
type Stats struct {
	Appended      int64
	Fsyncs        int64
	Bytes         int64
	Segments      int
	FirstOffset   uint64
	NextOffset    uint64
	UnsyncedBytes int64
	LastFsyncAge  float64
	SnapshotEnd   uint64
	Consumers     map[string]uint64
	MaxLag        int64
}

// Stats reads the counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Appended:      l.appended.Load(),
		Fsyncs:        l.fsyncs.Load(),
		Bytes:         l.bytes.Load(),
		Segments:      len(l.segs),
		NextOffset:    l.next,
		UnsyncedBytes: l.unsynced,
		SnapshotEnd:   l.snapEnd,
		LastFsyncAge:  time.Since(time.Unix(0, l.lastFsync.Load())).Seconds(),
	}
	if len(l.segs) > 0 {
		st.FirstOffset = l.segs[0].base
	}
	if len(l.consumers) > 0 {
		st.Consumers = make(map[string]uint64, len(l.consumers))
		for name, off := range l.consumers {
			st.Consumers[name] = off
			if lag := int64(l.next) - int64(off); lag > st.MaxLag {
				st.MaxLag = lag
			}
		}
	}
	return st
}

// listSegments finds and orders dir's segment files by base offset,
// validating that names parse and bases strictly increase.
func listSegments(dir string) ([]segmentRef, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("eventlog: read dir: %w", err)
	}
	var segs []segmentRef
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("eventlog: segment name %q does not parse: %w", name, err)
		}
		segs = append(segs, segmentRef{base: base, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].base < segs[b].base })
	for i := 1; i < len(segs); i++ {
		if segs[i].base <= segs[i-1].base {
			return nil, fmt.Errorf("eventlog: duplicate segment base %#x", segs[i].base)
		}
	}
	return segs, nil
}
