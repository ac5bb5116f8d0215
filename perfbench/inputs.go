package main

import (
	"encoding/binary"
	"math/rand/v2"

	"sigmadedupe/internal/workload"
)

// Inputs are generated from the run's seed and materialised into memory
// before an operation's timer starts, so neither the generator nor the
// restore checker is inside a measured interval.

// uniqueStream fills buf with bytes no other (seed, round, op) triple
// produces. A ChaCha8 keystream has no repeating structure at any chunk
// size, so every content-defined chunk of it is unique: stored physical
// bytes must equal logical bytes.
func uniqueStream(buf []byte, seed int64, round, op int) {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], uint64(seed))
	binary.LittleEndian.PutUint64(key[8:], uint64(round))
	binary.LittleEndian.PutUint64(key[16:], uint64(op))
	copy(key[24:], "perfbenc")
	rand.NewChaCha8(key).Read(buf)
}

// materialize writes an item's block payloads into buf (reused across
// operations) and returns the filled prefix.
func materialize(it workload.Item, buf []byte) []byte {
	n := int(it.Size())
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	for i, s := range it.Blocks {
		workload.FillBlock(s, buf[i*workload.BlockSize:(i+1)*workload.BlockSize])
	}
	return buf
}

// fileBatch is the run of consecutive files of the linux source tree
// one sim_tree operation backs up.
type fileBatch struct {
	files []workload.Item
	bytes int64
}

// linuxBatches generates the linux dataset for seed and cuts its file
// stream, in version order, into batches of at least batchBytes. Batches
// of equal size keep the latency percentiles off the size steps between
// versions (the tree grows 10% at every series). Only block seeds are
// kept; payloads are materialised per operation.
func linuxBatches(seed int64, scale float64, batchBytes int64) ([]fileBatch, error) {
	g, err := workload.ByName("linux", scale, seed)
	if err != nil {
		return nil, err
	}
	out := []fileBatch{{}}
	err = g.Items(func(it workload.Item) error {
		b := &out[len(out)-1]
		if b.bytes >= batchBytes {
			out = append(out, fileBatch{})
			b = &out[len(out)-1]
		}
		b.files = append(b.files, it)
		b.bytes += it.Size()
		return nil
	})
	return out, err
}

// materializeBatch lays out every file of v back to back in buf and
// returns the filled buffer with each file's byte range.
func materializeBatch(v fileBatch, buf []byte) ([]byte, [][2]int) {
	if cap(buf) < int(v.bytes) {
		buf = make([]byte, v.bytes)
	}
	buf = buf[:v.bytes]
	spans := make([][2]int, len(v.files))
	off := 0
	for i, f := range v.files {
		end := off + int(f.Size())
		materialize(f, buf[off:end:end])
		spans[i] = [2]int{off, end}
		off = end
	}
	return buf, spans
}
