package ms

import (
	"titant/internal/hbase"
	"titant/internal/rng"
	"titant/internal/txn"
)

// ShardOf maps a user onto one of n shards with Lamping–Veach jump
// consistent hashing over the same Mix64 the user cache and the stream
// store stripe by. It is the one partition function of the system: the
// engine picks a user's feature table with it (Server.tables), the
// sharded uploader writes with it, and the wire router picks the shard
// server with it. Jump hashing makes resharding cheap — going from n to m
// shards moves only ~|n-m|/max(n,m) of the keyspace — and a moved user
// scores bitwise the same, because a row reads the same from whichever
// table holds it and nothing else in the engine depends on the width.
func ShardOf(u txn.UserID, n int) int {
	if n <= 1 {
		return 0
	}
	key := rng.Mix64(uint64(uint32(u)))
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// ShardedEngine is the engine NewSharded returns (bench/ names the type).
type ShardedEngine = Server

// ShardedUploader routes user uploads across a partitioned feature store:
// each user's fragments land on the table ShardOf assigns them, the
// counterpart of ms.Uploader over NewSharded's tables.
type ShardedUploader struct {
	ups []Uploader
}

// NewShardedUploader builds an uploader over the store's tables (index i
// is partition i, as in NewSharded). Invalidation is unwired — use
// Server.Uploader to re-publish against a live engine.
func NewShardedUploader(tables []*hbase.Table, version int64) *ShardedUploader {
	ups := make([]Uploader, len(tables))
	for i, tab := range tables {
		ups[i] = Uploader{Table: tab, Version: version}
	}
	return &ShardedUploader{ups: ups}
}

// Uploader builds a ShardedUploader over the engine's own tables with
// invalidation wired to its user cache, so a live re-publication is
// visible to the very next score.
func (s *Server) Uploader(version int64) *ShardedUploader {
	su := NewShardedUploader(s.tables, version)
	for i := range su.ups {
		su.ups[i].Invalidate = s.InvalidateUser
	}
	return su
}

// PutUser writes one user's fragments to their owner table.
func (su *ShardedUploader) PutUser(u *txn.User, emb []float32) error {
	return su.ups[ShardOf(u.ID, len(su.ups))].PutUser(u, emb)
}
