package client

import (
	"context"
	"fmt"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/store"
)

// NodeConn is the node verb surface the backup client and the migration
// engine call. *rpc.Client implements it over a socket; *rpc.Local
// implements it in process. Code written against NodeConn cannot tell
// the two apart, so one management path serves both deployments.
type NodeConn interface {
	// Bid returns the node's similarity match count for hp and its
	// storage usage (Algorithm 1 step 2).
	Bid(ctx context.Context, hp core.Handprint) (count int, usage int64, err error)
	// Query reports, per chunk of sc, whether the node already holds it.
	Query(ctx context.Context, sc *core.SuperChunk) ([]bool, error)
	// Store stores sc on the named stream; with withData false the
	// payloads are not sent (reference-only store).
	Store(ctx context.Context, stream string, sc *core.SuperChunk, withData bool) error
	// ReadBatch returns the payloads of fps in request order; the caller
	// releases the batch once the data is written out.
	ReadBatch(ctx context.Context, fps []fingerprint.Fingerprint) (*rpc.ChunkBatch, error)
	// Flush seals the node's open containers.
	Flush(ctx context.Context) error
	// DecRef releases ns[i] references on fps[i].
	DecRef(ctx context.Context, fps []fingerprint.Fingerprint, ns []int64) error
	// MigrateRead returns the payloads of fps in order, owned by the
	// caller (migration source side).
	MigrateRead(ctx context.Context, fps []fingerprint.Fingerprint) ([][]byte, error)
	// MigrateWrite stores a migrated super-chunk, payloads included.
	MigrateWrite(ctx context.Context, stream string, sc *core.SuperChunk) error
	// MigrateCommit seals the stream's container and syncs the manifest.
	MigrateCommit(ctx context.Context, stream string) error
	// RefCounts returns the node's reference count for each fingerprint.
	RefCounts(ctx context.Context, fps []fingerprint.Fingerprint) ([]int64, error)
	// Compact runs one compaction scan (≤0 threshold: node default).
	Compact(ctx context.Context, threshold float64) (store.CompactResult, error)
	// GCStats returns the node's GC counters and storage usage.
	GCStats(ctx context.Context) (store.GCStats, int64, error)
	// Stats returns the node's dedup counters and storage usage.
	Stats(ctx context.Context) (node.Stats, int64, error)
	// Calls returns how many requests this connection has issued.
	Calls() int64
	// Close releases the connection; later calls fail.
	Close() error
}

var (
	_ NodeConn = (*rpc.Client)(nil)
	_ NodeConn = (*rpc.Local)(nil)
)

// DialAll dials one socket connection per address, assigning node IDs
// 0..n-1 in order — the fixed-cluster shorthand. On failure every
// connection already made is closed.
func DialAll(ctx context.Context, addrs []string) (map[int]NodeConn, error) {
	conns := make(map[int]NodeConn, len(addrs))
	for i, addr := range addrs {
		c, err := rpc.DialContext(ctx, addr)
		if err != nil {
			for _, prev := range conns {
				prev.Close()
			}
			return nil, fmt.Errorf("client: node %d: %w", i, err)
		}
		conns[i] = c
	}
	return conns, nil
}
