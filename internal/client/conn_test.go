package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/sderr"
)

// randomSC builds a super-chunk of n random 4KB chunks with payloads.
func randomSC(seed int64, n int) *core.SuperChunk {
	rng := rand.New(rand.NewSource(seed))
	sc := &core.SuperChunk{}
	for i := 0; i < n; i++ {
		data := make([]byte, 4096)
		rng.Read(data)
		sc.Chunks = append(sc.Chunks, core.ChunkRef{FP: fingerprint.Sum(data), Size: len(data), Data: data})
	}
	return sc
}

// errClass names the error taxonomy class err belongs to, so results
// from the two transports compare by errors.Is class rather than text.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"not-found", sderr.ErrNotFound},
		{"corrupt", sderr.ErrCorrupt},
		{"vanished", sderr.ErrChunkVanished},
		{"no-session", sderr.ErrNoSession},
		{"conflict", sderr.ErrConflict},
		{"quota", sderr.ErrQuotaExceeded},
		{"canceled", context.Canceled},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "other"
}

// nodeConnTrace runs one fixed verb sequence against conn — every verb
// of NodeConn, including failures — and records each result, so two
// transports can be compared value for value.
func nodeConnTrace(t *testing.T, conn NodeConn) []string {
	t.Helper()
	ctx := context.Background()
	var out []string
	rec := func(verb string, v any, err error) {
		out = append(out, fmt.Sprintf("%s: %v [%s]", verb, v, errClass(err)))
	}
	fps := func(sc *core.SuperChunk) []fingerprint.Fingerprint {
		f := make([]fingerprint.Fingerprint, len(sc.Chunks))
		for i, ch := range sc.Chunks {
			f[i] = ch.FP
		}
		return f
	}
	payloads := func(datas [][]byte) []fingerprint.Fingerprint {
		sums := make([]fingerprint.Fingerprint, len(datas))
		for i, d := range datas {
			sums[i] = fingerprint.Sum(d)
		}
		return sums
	}
	sc := randomSC(1, 12)
	moved := randomSC(2, 6)
	unknown := randomSC(3, 1).Chunks[0].FP
	hp := sc.Handprint(8)

	count, usage, err := conn.Bid(ctx, hp)
	rec("bid empty", []any{count, usage}, err)
	dup, err := conn.Query(ctx, sc)
	rec("query empty", dup, err)
	rec("store", nil, conn.Store(ctx, "s", sc, true))
	dup, err = conn.Query(ctx, sc)
	rec("query stored", dup, err)
	count, usage, err = conn.Bid(ctx, hp)
	rec("bid stored", []any{count, usage}, err)
	rec("store refs", nil, conn.Store(ctx, "s", sc, false))
	rec("flush", nil, conn.Flush(ctx))

	want := fps(sc)
	batch, err := conn.ReadBatch(ctx, []fingerprint.Fingerprint{want[5], want[0], want[11]})
	if err == nil {
		rec("read batch", []any{payloads(batch.Data), batch.Bytes}, nil)
		batch.Release()
	} else {
		rec("read batch", nil, err)
	}
	_, err = conn.ReadBatch(ctx, []fingerprint.Fingerprint{want[1], unknown})
	rec("read batch unknown", nil, err)

	counts, err := conn.RefCounts(ctx, append(want[:3:3], unknown))
	rec("refcounts", counts, err)
	rec("decref", nil, conn.DecRef(ctx, want[:2], []int64{2, 1}))
	counts, err = conn.RefCounts(ctx, want[:3])
	rec("refcounts after decref", counts, err)
	rec("decref unknown", nil, conn.DecRef(ctx, []fingerprint.Fingerprint{unknown}, []int64{1}))

	datas, err := conn.MigrateRead(ctx, want[4:7])
	rec("migrate read", payloads(datas), err)
	_, err = conn.MigrateRead(ctx, []fingerprint.Fingerprint{unknown})
	rec("migrate read unknown", nil, err)
	rec("migrate write", nil, conn.MigrateWrite(ctx, "\x00migrate", moved))
	rec("migrate commit", nil, conn.MigrateCommit(ctx, "\x00migrate"))
	counts, err = conn.RefCounts(ctx, fps(moved))
	rec("refcounts migrated", counts, err)

	res, err := conn.Compact(ctx, 0.99)
	rec("compact", res, err)
	gc, usage, err := conn.GCStats(ctx)
	rec("gc stats", []any{gc, usage}, err)
	st, usage, err := conn.Stats(ctx)
	rec("stats", []any{st, usage}, err)

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, _, err = conn.Bid(canceled, hp)
	rec("bid canceled", nil, err)
	rec("calls", conn.Calls(), nil)
	rec("close", nil, conn.Close())
	_, _, err = conn.Stats(ctx)
	out = append(out, fmt.Sprintf("stats after close fails: %v", err != nil))
	return out
}

// TestNodeConnConformance runs the same verb sequence against the
// in-process rpc.Local and against an rpc.Client over a unix socket, each
// on a fresh node: every result and every error class must match.
func TestNodeConnConformance(t *testing.T) {
	newNode := func() *node.Node {
		n, err := node.New(node.Config{KeepPayloads: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	local := newNode()
	viaLocal := nodeConnTrace(t, rpc.NewLocal(func() (*node.Node, error) { return local, nil }))

	srv, err := rpc.NewServer(newNode(), "unix:"+filepath.Join(t.TempDir(), "n.sock"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	rc, err := rpc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	viaSocket := nodeConnTrace(t, rc)

	if len(viaLocal) != len(viaSocket) {
		t.Fatalf("trace lengths differ: %d vs %d", len(viaLocal), len(viaSocket))
	}
	for i := range viaLocal {
		if viaLocal[i] != viaSocket[i] {
			t.Errorf("step %d differs:\n  local:  %s\n  socket: %s", i, viaLocal[i], viaSocket[i])
		}
	}
	for _, step := range viaLocal {
		t.Log(step)
	}
}

// TestLocalFailsWhenNodeGone: a killed node fails every verb of an
// in-process connection, as a dead peer fails a socket.
func TestLocalFailsWhenNodeGone(t *testing.T) {
	gone := fmt.Errorf("node 3: %w", sderr.ErrNotFound)
	conn := rpc.NewLocal(func() (*node.Node, error) { return nil, gone })
	if _, _, err := conn.Bid(context.Background(), nil); !errors.Is(err, sderr.ErrNotFound) {
		t.Fatalf("bid on a gone node = %v, want ErrNotFound", err)
	}
	if err := conn.Flush(context.Background()); !errors.Is(err, sderr.ErrNotFound) {
		t.Fatalf("flush on a gone node = %v, want ErrNotFound", err)
	}
}
