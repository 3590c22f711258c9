package ms

import (
	"sync"

	"titant/internal/feature"
	"titant/internal/hbase"
	"titant/internal/txn"
)

// Pooled scratch for the scoring paths: the feature matrix, the fetch
// stage's per-batch state and the score stage's output buffers are
// recycled across requests, so a warm pass allocates only what it returns.
// Every pool holds pointers, so a put boxes nothing.

var matrixPool = sync.Pool{New: func() any { return &feature.Matrix{} }}

// getMatrix returns a rows×cols matrix from the pool with unspecified
// contents: assembleRow writes every slot of every row (copyEmb zero-fills
// an absent embedding) before a scorer reads it.
func getMatrix(rows, cols int) *feature.Matrix {
	m := matrixPool.Get().(*feature.Matrix)
	m.Data = grow(m.Data, rows*cols)
	m.Rows, m.Cols = rows, cols
	return m
}

func putMatrix(m *feature.Matrix) { matrixPool.Put(m) }

// grow returns s resized to n elements, reallocating only when its
// capacity is short. Kept elements keep their contents.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fetchScratch is one batch's fetch-stage state: the deduplicated user
// set, every user's fragments, and the store read's bookkeeping. ids,
// parts and found are index-aligned; index maps a user to that position,
// and pos holds each transaction's sender and receiver positions in turn.
// The assembly and multi-get stage funcs are bound once per scratch, so
// no runPool stage allocates a closure; they read the batch's inputs from
// the fields below them.
type fetchScratch struct {
	index  map[txn.UserID]int32
	ids    []txn.UserID
	pos    []int32
	parts  []userParts
	found  []bool
	misses []miss   // users the cache could not answer
	keys   []byte   // the misses' row keys, back to back
	rows   []string // rows[k]: misses[k]'s key, a substring of one string(keys)

	assemble, readChunk func(int) error
	tables              []*hbase.Table
	txns                []txn.Transaction
	bundle              *Bundle
	city                feature.CitySource
	m                   *feature.Matrix
}

var fetchPool = sync.Pool{New: func() any {
	fs := &fetchScratch{index: make(map[txn.UserID]int32)}
	fs.assemble, fs.readChunk = fs.assembleRow, fs.readChunkAt
	return fs
}}

// add appends u to the batch's user set unless it is already there, and
// its position to pos.
func (fs *fetchScratch) add(u txn.UserID) {
	i, ok := fs.index[u]
	if !ok {
		i = int32(len(fs.ids))
		fs.index[u] = i
		fs.ids = append(fs.ids, u)
	}
	fs.pos = append(fs.pos, i)
}

// putFetchScratch returns fs to the pool holding nothing of the batch:
// parts alias store values, rows alias the batch's key string, and the
// stage inputs name the batch's rows, bundle and matrix; a pooled scratch
// must pin none of them.
func putFetchScratch(fs *fetchScratch) {
	clear(fs.index)
	clear(fs.parts)
	clear(fs.rows)
	fs.ids, fs.pos = fs.ids[:0], fs.pos[:0]
	fs.tables, fs.txns, fs.bundle, fs.city, fs.m = nil, nil, nil, nil, nil
	fetchPool.Put(fs)
}

// scoreScratch is one scoring pass's output: the combined score per row,
// the per-member scores, and the scoredBatch view of them handed to the
// pass's visit callback — pooled together, so neither the single-row nor
// the batch core allocates to hand its scores over.
type scoreScratch struct {
	sb       scoredBatch
	combined []float64
	members  [][]float64 // [member][row]
}

var scorePool = sync.Pool{New: func() any { return &scoreScratch{} }}

// getScoreScratch returns scratch for a pass over rows rows with members
// per-member score slices (0: sb.memberScores stays nil, as a v1
// single-model bundle's verdicts want it). Score contents are unspecified;
// every slot is written by a member's scorer or the combiner before it is
// read.
func getScoreScratch(members, rows int) *scoreScratch {
	sc := scorePool.Get().(*scoreScratch)
	sc.combined = grow(sc.combined, rows)
	sc.sb = scoredBatch{combined: sc.combined}
	if members > 0 {
		sc.members = grow(sc.members, members)
		for k := range sc.members {
			sc.members[k] = grow(sc.members[k], rows)
		}
		sc.sb.memberScores = sc.members
	}
	return sc
}

func putScoreScratch(sc *scoreScratch) {
	sc.sb = scoredBatch{} // a pooled scratch must not pin a swapped-out bundle
	scorePool.Put(sc)
}

// memberSlabLen is the length of a shared member-score array: 85 × 24 B
// plus the 8-byte header a pointerful object over 512 B carries fills the
// 2 048 B size class exactly (64 would pay 1 792 B for 1 536).
const memberSlabLen = 85

// memberSlab is the uncarved tail of a shared member-score array. A
// one-transaction verb carves its breakdown from it instead of allocating
// one. A carved piece is never handed out again, and a slab too short for
// the next carve is dropped, to be freed with the last verdict holding a
// piece of it.
type memberSlab struct{ free []MemberScore }

var memberSlabs = sync.Pool{New: func() any { return new(memberSlab) }}

// carveMembers returns n member scores no other verdict holds, with
// len == cap, so an append by the caller reallocates instead of reaching a
// neighbour's scores.
func carveMembers(n int) []MemberScore {
	if n > memberSlabLen {
		return make([]MemberScore, n)
	}
	sl := memberSlabs.Get().(*memberSlab)
	if len(sl.free) < n {
		sl.free = make([]MemberScore, memberSlabLen)
	}
	s := sl.free[:n:n]
	sl.free = sl.free[n:]
	memberSlabs.Put(sl)
	return s
}
