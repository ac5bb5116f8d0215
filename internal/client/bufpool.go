package client

import (
	"sync"
	"sync/atomic"
)

// BufPool recycles chunk payload buffers between the chunker (which
// fills them) and the point where a chunk's payload is dead: after its
// super-chunk left the in-flight window and crossed the wire, or, on the
// simulator's metadata-only path, right after it was fingerprinted.
// With the pool in place a backup's live chunk-buffer allocation is
// bounded by the window regardless of stream length; the alloc/reuse
// counters are the session's proof of that cliff (allocs plateau at
// roughly the window size while reuses grow with the stream).
//
// The free list is a mutex-guarded stack, not a sync.Pool: Put into a
// sync.Pool boxes the slice header, costing one heap allocation per
// released chunk — exactly the per-chunk churn the pool exists to kill.
type BufPool struct {
	mu     sync.Mutex
	free   [][]byte
	bufCap int          // capacity every pooled buffer is provisioned with
	allocs atomic.Int64 // buffers newly made (pool miss or oversized)
	reuses atomic.Int64 // buffers served from the pool
}

// bufPoolRetain bounds the free stack. The steady-state population is
// the in-flight window's worth of chunks; anything beyond that is churn
// from a draining burst and can go to the GC.
const bufPoolRetain = 1024

// NewBufPool returns a pool of buffers provisioned with bufCap bytes.
func NewBufPool(bufCap int) *BufPool {
	return &BufPool{bufCap: bufCap}
}

// Alloc implements chunker.Allocator: a slice of length n, drawn from
// the pool when possible.
func (p *BufPool) Alloc(n int) []byte {
	if n <= p.bufCap {
		p.mu.Lock()
		if last := len(p.free) - 1; last >= 0 {
			b := p.free[last]
			p.free[last] = nil
			p.free = p.free[:last]
			p.mu.Unlock()
			p.reuses.Add(1)
			return b[:n]
		}
		p.mu.Unlock()
	}
	p.allocs.Add(1)
	if n > p.bufCap {
		return make([]byte, n)
	}
	return make([]byte, n, p.bufCap)
}

// Release returns a chunk buffer for reuse once nothing references it.
// Buffers that lost their provisioned capacity are dropped for the GC.
func (p *BufPool) Release(b []byte) {
	if cap(b) < p.bufCap {
		return
	}
	p.mu.Lock()
	if len(p.free) < bufPoolRetain {
		p.free = append(p.free, b[:0])
	}
	p.mu.Unlock()
}

// Allocs returns how many buffers were newly allocated.
func (p *BufPool) Allocs() int64 { return p.allocs.Load() }

// Reuses returns how many buffers were served from the pool.
func (p *BufPool) Reuses() int64 { return p.reuses.Load() }
