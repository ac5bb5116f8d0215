package chunker

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// backupCutConfig makes TTTD fall back to backup cuts often on random
// data: a main cut is rare below the 96KB maximum, a backup cut is not.
var backupCutConfig = TTTDConfig{Min: 1 << 10, MinorMean: 2 << 10, MajorMean: 64 << 10, Max: 96 << 10}

// TestTTTDBackupCutOffsets pins the cut offsets of a seeded input that
// forces backup cuts: the carried tail must re-enter the next chunk
// exactly where the earlier reader-wrapping implementation put it.
func TestTTTDBackupCutOffsets(t *testing.T) {
	data := make([]byte, 4<<20)
	rand.New(rand.NewSource(1)).Read(data)
	c, err := NewTTTD(bytes.NewReader(data), backupCutConfig)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var (
		offsets []int64
		carried int
	)
	for {
		ch, err := c.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d,", ch.Offset)
		offsets = append(offsets, ch.Offset)
		if len(c.carry) > 0 {
			carried++
		}
	}
	if carried == 0 {
		t.Fatal("no chunk ended at a backup cut; the input does not exercise the carry")
	}
	const wantDigest = "c89a2e44c8e7929d6bf927a05266588bdae626d3625e1736a0cd099fa18b7c44"
	if len(offsets) != 85 || fmt.Sprintf("%x", h.Sum(nil)) != wantDigest {
		t.Fatalf("%d chunks, offset digest %x (first %v); want 85 chunks, digest %s",
			len(offsets), h.Sum(nil), offsets[:8], wantDigest)
	}
	want := []int64{0, 6247, 103596, 201506, 288885, 347382, 445059, 447160}
	for i, off := range want {
		if offsets[i] != off {
			t.Fatalf("cut %d at offset %d, want %d", i, offsets[i], off)
		}
	}
}

// TestTTTDBackupCutsAllocateNothingPerChunk: a backup cut carries its
// tail in one chunker-owned buffer, so the bytes a stream allocates
// (chunk buffers excluded) do not grow with its length. Wrapping the
// reader in a new 64KB buffered layer per backup cut allocated — and
// kept reachable — one layer per cut.
func TestTTTDBackupCutsAllocateNothingPerChunk(t *testing.T) {
	data := make([]byte, 16<<20)
	rand.New(rand.NewSource(2)).Read(data)
	allocated := func(n int) (uint64, int) {
		buf := make([]byte, backupCutConfig.Max)
		c, err := NewTTTD(bytes.NewReader(data[:n]), backupCutConfig,
			WithAllocator(func(int) []byte { return buf }))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		chunks := 0
		for {
			if _, err := c.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			chunks++
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, chunks
	}
	shortBytes, shortChunks := allocated(2 << 20)
	longBytes, longChunks := allocated(16 << 20)
	t.Logf("2MB: %d bytes over %d chunks; 16MB: %d bytes over %d chunks",
		shortBytes, shortChunks, longBytes, longChunks)
	if longBytes > shortBytes+64<<10 {
		t.Fatalf("a 16MB stream allocated %d bytes, a 2MB one %d: allocation grows with stream length",
			longBytes, shortBytes)
	}
}
