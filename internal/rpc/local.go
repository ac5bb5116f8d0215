package rpc

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/store"
)

// Local is the in-process counterpart of Client, verb for verb: every
// call reaches the node directly, the same way the server's handlers
// do, with no encoding. The node is resolved on every call, so a node
// that was restarted is reached through its new object and a node that
// was killed fails the call.
type Local struct {
	resolve func() (*node.Node, error)
	calls   atomic.Int64
	closed  atomic.Bool
}

// NewLocal returns an in-process connection to the node resolve returns.
func NewLocal(resolve func() (*node.Node, error)) *Local {
	return &Local{resolve: resolve}
}

// node counts one call and resolves its target, failing like a dead
// socket once the connection is closed or the node is gone.
func (l *Local) node(ctx context.Context) (*node.Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	l.calls.Add(1)
	if l.closed.Load() {
		return nil, fmt.Errorf("rpc: local connection: %w", net.ErrClosed)
	}
	return l.resolve()
}

// Bid mirrors Client.Bid.
func (l *Local) Bid(ctx context.Context, hp core.Handprint) (int, int64, error) {
	n, err := l.node(ctx)
	if err != nil {
		return 0, 0, err
	}
	return n.CountHandprintMatches(hp), n.StorageUsage(), nil
}

// Query mirrors Client.Query.
func (l *Local) Query(ctx context.Context, sc *core.SuperChunk) ([]bool, error) {
	n, err := l.node(ctx)
	if err != nil {
		return nil, err
	}
	return n.QuerySuperChunk(sc), nil
}

// Store mirrors Client.Store.
func (l *Local) Store(ctx context.Context, stream string, sc *core.SuperChunk, withData bool) error {
	n, err := l.node(ctx)
	if err != nil {
		return err
	}
	if !withData {
		refs := &core.SuperChunk{Chunks: make([]core.ChunkRef, len(sc.Chunks))}
		for i, ch := range sc.Chunks {
			refs.Chunks[i] = core.ChunkRef{FP: ch.FP, Size: ch.Size}
		}
		sc = refs
	}
	_, err = n.StoreSuperChunk(stream, sc)
	return err
}

// ReadBatch mirrors Client.ReadBatch. The payloads alias node memory, which
// the node never rewrites in place, so Release has nothing to recycle.
func (l *Local) ReadBatch(ctx context.Context, fps []fingerprint.Fingerprint) (*ChunkBatch, error) {
	n, err := l.node(ctx)
	if err != nil {
		return nil, err
	}
	datas, idx, err := n.ReadChunkBatch(fps)
	if err != nil {
		return nil, err
	}
	b := &ChunkBatch{Data: make([][]byte, len(fps))}
	for i, d := range datas {
		b.Data[idx[i]] = d
		b.Bytes += int64(len(d))
	}
	return b, nil
}

// Flush mirrors Client.Flush.
func (l *Local) Flush(ctx context.Context) error {
	n, err := l.node(ctx)
	if err != nil {
		return err
	}
	return n.Flush()
}

// DecRef mirrors Client.DecRef.
func (l *Local) DecRef(ctx context.Context, fps []fingerprint.Fingerprint, ns []int64) error {
	n, err := l.node(ctx)
	if err != nil {
		return err
	}
	return n.DecRef(fps, ns)
}

// MigrateRead mirrors Client.MigrateRead.
func (l *Local) MigrateRead(ctx context.Context, fps []fingerprint.Fingerprint) ([][]byte, error) {
	n, err := l.node(ctx)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(fps))
	for i, fp := range fps {
		if out[i], err = n.ReadChunk(fp); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MigrateWrite mirrors Client.MigrateWrite.
func (l *Local) MigrateWrite(ctx context.Context, stream string, sc *core.SuperChunk) error {
	return l.Store(ctx, stream, sc, true)
}

// MigrateCommit mirrors Client.MigrateCommit.
func (l *Local) MigrateCommit(ctx context.Context, stream string) error {
	n, err := l.node(ctx)
	if err != nil {
		return err
	}
	return n.SealStream(stream)
}

// RefCounts mirrors Client.RefCounts.
func (l *Local) RefCounts(ctx context.Context, fps []fingerprint.Fingerprint) ([]int64, error) {
	n, err := l.node(ctx)
	if err != nil {
		return nil, err
	}
	return n.RefCounts(fps), nil
}

// Compact mirrors Client.Compact.
func (l *Local) Compact(ctx context.Context, threshold float64) (store.CompactResult, error) {
	n, err := l.node(ctx)
	if err != nil {
		return store.CompactResult{}, err
	}
	return n.Compact(ctx, threshold)
}

// GCStats mirrors Client.GCStats.
func (l *Local) GCStats(ctx context.Context) (store.GCStats, int64, error) {
	n, err := l.node(ctx)
	if err != nil {
		return store.GCStats{}, 0, err
	}
	return n.GCStats(), n.StorageUsage(), nil
}

// Stats mirrors Client.Stats.
func (l *Local) Stats(ctx context.Context) (node.Stats, int64, error) {
	n, err := l.node(ctx)
	if err != nil {
		return node.Stats{}, 0, err
	}
	return n.Stats(), n.StorageUsage(), nil
}

// Calls mirrors Client.Calls.
func (l *Local) Calls() int64 { return l.calls.Load() }

// Close mirrors Client.Close: the node itself stays up.
func (l *Local) Close() error {
	l.closed.Store(true)
	return nil
}
