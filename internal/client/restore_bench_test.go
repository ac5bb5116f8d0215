package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"sigmadedupe/internal/director"
)

// benchRestore backs up size bytes once, then restores it repeatedly,
// reporting restore MB/s and allocations per op — the per-chunk path
// allocates a payload buffer per chunk; the batched path aliases pooled
// RPC frames.
func benchRestore(b *testing.B, addrs []string, perChunk bool, delay time.Duration, size int) {
	b.Helper()
	dir := director.New()
	c, err := New(context.Background(), Config{
		Name:            "bench",
		SuperChunkSize:  128 << 10,
		PerChunkRestore: perChunk,
	}, dir, dialNodes(b, addrs))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	content := randBytes(2000, size)
	if err := c.BackupFile(context.Background(), "/bench", bytes.NewReader(content)); err != nil {
		b.Fatal(err)
	}
	if err := c.Flush(context.Background()); err != nil {
		b.Fatal(err)
	}

	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Restore(context.Background(), "/bench", io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore compares the batched scheduler against the
// one-RPC-per-chunk path, with and without emulated node service time
// (loopback hides the latency batching amortizes).
func BenchmarkRestore(b *testing.B) {
	const size = 8 << 20
	for _, delay := range []time.Duration{0, 200 * time.Microsecond} {
		addrs := benchServers(b, 2, delay)
		for _, perChunk := range []bool{false, true} {
			mode := "batched"
			if perChunk {
				mode = "perchunk"
			}
			b.Run(fmt.Sprintf("%s/delay=%s", mode, delay), func(b *testing.B) {
				benchRestore(b, addrs, perChunk, delay, size)
			})
		}
	}
}
