package client

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"sigmadedupe/internal/director"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/rpc"
)

// cancelAfterWriter cancels a context after its first Write, then keeps
// accepting bytes — simulating a restore consumer that goes away
// mid-stream.
type cancelAfterWriter struct {
	cancel context.CancelFunc
	wrote  bool
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.cancel()
	}
	return len(p), nil
}

// TestRestoreCancellationUnwinds cancels a batched restore mid-stream
// against a slow server and requires the call to return promptly with
// the cancellation, leaving the client healthy for the next restore.
func TestRestoreCancellationUnwinds(t *testing.T) {
	nd, err := node.New(node.Config{ID: 0, KeepPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rpc.NewServer(nd, "127.0.0.1:0", rpc.WithHandlerDelay(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	dir := director.New()
	// Tiny windows: a 1MB image becomes dozens of batch RPCs, each held
	// 5ms by the server, so the cancel lands with work still queued.
	c, err := New(context.Background(), Config{
		Name:                "t",
		SuperChunkSize:      8 << 10,
		InflightSuperChunks: 8,
		RestoreWindowBytes:  16 << 10,
	}, dir, dialNodes(t, []string{srv.Addr()}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	content := randBytes(90, 1<<20)
	if err := c.BackupFile(context.Background(), "/img", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelAfterWriter{cancel: cancel}
	start := time.Now()
	err = c.Restore(ctx, "/img", w)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("canceled restore reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("restore error %v does not wrap context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("canceled restore took %v to unwind", elapsed)
	}

	// The cancellation must not poison the client: a fresh restore of the
	// same backup still yields identical bytes.
	var out bytes.Buffer
	if err := c.Restore(context.Background(), "/img", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), content) {
		t.Fatal("restore after cancellation corrupted the stream")
	}
}

// TestRestoreOneReadBatchPerNodePerWindow restores a backup spread over
// two nodes and requires byte-identical output plus the exact read
// accounting of the batched scheduler: one ReadBatch per node touched per
// restore window, and no other node traffic.
func TestRestoreOneReadBatchPerNodePerWindow(t *testing.T) {
	ctx := context.Background()
	addrs := startCluster(t, 2)
	dir := director.New()
	content := randBytes(91, 1<<20)
	const window = 96 << 10

	c, err := New(ctx, Config{Name: "t", SuperChunkSize: 64 << 10, RestoreWindowBytes: window},
		dir, dialNodes(t, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.BackupFile(ctx, "/img", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Expected reads: cut the recipe into windows of at most window
	// payload bytes (a window always takes at least one entry) and count
	// the distinct nodes each window touches.
	recipe, err := dir.GetRecipe(ctx, c.key("/img"))
	if err != nil {
		t.Fatal(err)
	}
	var want, windows int64
	nodes := map[int32]bool{}
	var size int64
	for i, e := range recipe.Chunks {
		if i > 0 && size+int64(e.Size) > window {
			want += int64(len(nodes))
			windows++
			nodes, size = map[int32]bool{}, 0
		}
		nodes[e.Node] = true
		size += int64(e.Size)
	}
	want += int64(len(nodes))
	windows++
	if windows < 8 {
		t.Fatalf("only %d restore windows: the test needs several", windows)
	}
	if want == windows {
		t.Fatal("no window touches both nodes: the test needs a spread recipe")
	}

	before := c.RPCMessages()
	var out bytes.Buffer
	if err := c.Restore(ctx, "/img", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), content) {
		t.Fatal("restore disagrees with the backup content")
	}
	st := c.Stats()
	if st.RestoredBytes != int64(len(content)) {
		t.Fatalf("RestoredBytes = %d, want %d", st.RestoredBytes, len(content))
	}
	if st.RestoreRPCs != want {
		t.Fatalf("RestoreRPCs = %d, want %d (one per node per window over %d windows)",
			st.RestoreRPCs, want, windows)
	}
	if sent := c.RPCMessages() - before; sent != want {
		t.Fatalf("restore sent %d node requests, want %d", sent, want)
	}
}
