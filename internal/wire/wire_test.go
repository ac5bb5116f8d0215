package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// drain empties one size class so a test sees only its own buffers.
func drain(class int) *bufClass {
	p := &pools[class-minPoolClass]
	p.mu.Lock()
	p.free = nil
	p.mu.Unlock()
	return p
}

func pooled(p *bufClass) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// TestBufRoundTripPerClass: every size class hands out a buffer of the
// requested length with the class capacity, and a released buffer is
// the one the next request of that class gets back.
func TestBufRoundTripPerClass(t *testing.T) {
	for class := minPoolClass; class <= maxPoolClass; class++ {
		p := drain(class)
		n := 1<<class - 1
		if class == minPoolClass {
			n = 1 // below the smallest class still uses it
		}
		b := GetBuf(n)
		if len(b) != n || cap(b) != 1<<class {
			t.Fatalf("class %d: GetBuf(%d) = len %d cap %d, want len %d cap %d",
				class, n, len(b), cap(b), n, 1<<class)
		}
		b[0] = 0xAB
		PutBuf(b)
		if got := pooled(p); got != 1 {
			t.Fatalf("class %d: %d buffers pooled after one PutBuf", class, got)
		}
		again := GetBuf(n)
		if len(again) != n || &again[0] != &b[0] {
			t.Fatalf("class %d: the released buffer was not reused", class)
		}
		PutBuf(again)
		drain(class)
	}
}

// TestBufRetentionLimit: a class keeps at most freeLimit buffers; the
// surplus goes to the GC.
func TestBufRetentionLimit(t *testing.T) {
	for _, class := range []int{minPoolClass, 16, 17, 19} {
		p := drain(class)
		limit := freeLimit(class)
		for i := 0; i < limit+5; i++ {
			PutBuf(make([]byte, 0, 1<<class))
		}
		if got := pooled(p); got != limit {
			t.Fatalf("class %d retains %d buffers, want the limit %d", class, got, limit)
		}
		drain(class)
	}
	for class, want := range map[int]int{16: 64, 20: 16, 22: 4, maxPoolClass: 1} {
		if got := freeLimit(class); got != want {
			t.Fatalf("freeLimit(%d) = %d, want %d", class, got, want)
		}
	}
}

// TestPutBufDropsForeignBuffers: capacities that are not a pooled power
// of two — too small, too large, or odd — are never pooled, so a later
// GetBuf cannot hand out a buffer of the wrong class.
func TestPutBufDropsForeignBuffers(t *testing.T) {
	for class := minPoolClass; class <= maxPoolClass; class++ {
		drain(class)
	}
	for _, c := range []int{1 << (minPoolClass - 1), 3000, 1<<16 + 1, 1 << (maxPoolClass + 1)} {
		PutBuf(make([]byte, 0, c))
	}
	for class := minPoolClass; class <= maxPoolClass; class++ {
		if got := pooled(&pools[class-minPoolClass]); got != 0 {
			t.Fatalf("class %d pooled %d foreign buffers", class, got)
		}
	}
}

// TestReaderTruncatedInput: every strict prefix of a well-formed body
// fails decoding with ErrTruncated, and the sticky error survives later
// reads.
func TestReaderTruncatedInput(t *testing.T) {
	var body []byte
	body = AppendU8(body, 7)
	body = AppendU32(body, 1<<20)
	body = AppendU64(body, 1<<40)
	body = AppendI64(body, -5)
	body = AppendF64(body, 2.5)
	body = AppendBool(body, true)
	body = AppendBytes(body, []byte("payload"))
	body = AppendString(body, "name")
	decode := func(b []byte) error {
		r := NewReader(b)
		r.U8()
		r.U32()
		r.U64()
		r.I64()
		r.F64()
		r.Bool()
		r.Bytes()
		_ = r.String()
		return r.Done()
	}
	if err := decode(body); err != nil {
		t.Fatalf("whole body: %v", err)
	}
	for n := 0; n < len(body); n++ {
		if err := decode(body[:n]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrTruncated", n, len(body), err)
		}
	}

	r := NewReader([]byte{1, 2})
	if r.U32(); !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("short U32: err = %v", r.Err())
	}
	if v := r.U8(); v != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("read after failure = %d, %v; want zero value and the sticky error", v, r.Err())
	}

	if err := decode(append(body, 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing byte: err = %v, want ErrMalformed", err)
	}
	r = NewReader(AppendU32(nil, 1000))
	if r.Count(8); !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("impossible count: err = %v, want ErrMalformed", r.Err())
	}
}

// TestReadFrameTruncated: a frame cut inside its header or body is
// ErrTruncated; a clean boundary is io.EOF.
func TestReadFrameTruncated(t *testing.T) {
	var stream bytes.Buffer
	if err := WriteFrame(&stream, []byte("hello frame")); err != nil {
		t.Fatal(err)
	}
	whole := stream.Bytes()
	if _, err := ReadFrame(bytes.NewReader(nil), 0); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	for n := 1; n < len(whole); n++ {
		if _, err := ReadFrame(bytes.NewReader(whole[:n]), 0); !errors.Is(err, ErrTruncated) {
			t.Fatalf("frame cut at %d/%d bytes: err = %v, want ErrTruncated", n, len(whole), err)
		}
	}
	body, err := ReadFrame(bytes.NewReader(whole), 0)
	if err != nil || string(body) != "hello frame" {
		t.Fatalf("whole frame = %q, %v", body, err)
	}
	PutBuf(body)
	if _, err := ReadFrame(bytes.NewReader(whole), 4); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("frame over the limit: err = %v, want ErrTooLarge", err)
	}
}
