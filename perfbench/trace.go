package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanKind names one layer boundary the traced replay times. The rpc and
// node verbs are laid out in the same order so a verb's node span is
// its rpc span plus nodeOffset.
type spanKind uint8

const (
	spSource spanKind = iota
	spSink
	spChunkerNext
	spFingerprintSum
	spPartition
	spRoutePlan
	spAddChunk
	spClusterFlush
	spClientPlan
	spPutRecipe
	spGetRecipe
	spDeleteRecipe
	spRPCBid
	spRPCQuery
	spRPCStore
	spRPCFlush
	spRPCReadBatch
	spRPCDecRef
	spRPCCompact
	spNodeBid
	spNodeQuery
	spNodeStore
	spNodeFlush
	spNodeReadBatch
	spNodeDecRef
	spNodeCompact
	numSpans
)

const nodeOffset = spNodeBid - spRPCBid

var spanNames = [numSpans]string{
	spSource:         "bench.source",
	spSink:           "bench.sink",
	spChunkerNext:    "chunker.next",
	spFingerprintSum: "fingerprint.sum",
	spPartition:      "core.partition",
	spRoutePlan:      "core.route_plan",
	spAddChunk:       "cluster.add_chunk",
	spClusterFlush:   "cluster.flush",
	spClientPlan:     "client.plan",
	spPutRecipe:      "director.put_recipe",
	spGetRecipe:      "director.get_recipe",
	spDeleteRecipe:   "director.delete_recipe",
	spRPCBid:         "rpc.bid",
	spRPCQuery:       "rpc.query",
	spRPCStore:       "rpc.store",
	spRPCFlush:       "rpc.flush",
	spRPCReadBatch:   "rpc.read_batch",
	spRPCDecRef:      "rpc.decref",
	spRPCCompact:     "rpc.compact",
	spNodeBid:        "node.bid",
	spNodeQuery:      "node.query",
	spNodeStore:      "node.store",
	spNodeFlush:      "node.flush",
	spNodeReadBatch:  "node.read_batch",
	spNodeDecRef:     "node.decref",
	spNodeCompact:    "node.compact",
}

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; parent is the index of the enclosing span (-1 at top
// level) and op the operation the call belongs to.
type span struct {
	start, end int64
	parent     int32
	op         int32
	kind       spanKind
}

// tracer keeps every span of one replay pass in memory. A nil *tracer
// records nothing, which is how the same replay runs with spans off.
type tracer struct {
	t0    time.Time
	spans []span
	op    int32
	open  int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1} }

func (t *tracer) begin(k spanKind) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{kind: k, parent: t.open, op: t.op, start: int64(time.Since(t.t0))})
	t.open = int32(len(t.spans) - 1)
	return t.open
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = int64(time.Since(t.t0))
	t.open = s.parent
}

func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = int32(op)
	}
}

// layerStat is one span kind's summed self time and call count.
type layerStat struct {
	self  time.Duration
	calls int64
}

// aggregate sums self time per span kind: a span's duration minus the
// time its direct children cover.
func (t *tracer) aggregate() [numSpans]layerStat {
	var out [numSpans]layerStat
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		out[s.kind].self += time.Duration(s.end - s.start - child[i])
		out[s.kind].calls++
	}
	return out
}

// spanRecord is one line of the span dump.
type spanRecord struct {
	Pass    string `json:"pass"`
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Op      int32  `json:"op"`
	Parent  int32  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// dumpSpans writes the spans of every pass as gzip-compressed JSON
// lines (one spanRecord per line, see README.md).
func dumpSpans(path string, passes map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for _, pass := range []string{"rpc", "node", "sim"} {
		t := passes[pass]
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			rec := spanRecord{Pass: pass, ID: i, Name: spanNames[s.kind], Op: s.op, Parent: s.parent, StartNS: s.start, EndNS: s.end}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// ratioMetric is a per-layer ratio printed together with its base.
type ratioMetric struct {
	metric
	base string
}

func (r ratioMetric) String() string {
	return fmt.Sprintf("  %-36s %14.4f %-6s = %s", r.Name, r.Value, r.Unit, r.base)
}
