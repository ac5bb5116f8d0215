package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"sigmadedupe/internal/chunker"
	"sigmadedupe/internal/client"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/director"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/node"
	"sigmadedupe/internal/rpc"
	"sigmadedupe/internal/store"
)

// The traced replay drives one operation at a time, on one goroutine,
// through the layers' own public functions in the order the client
// calls them, timing each call from here. Nothing inside the program is
// instrumented.

// conn is the node verb surface the replay calls: an rpc.Client over a
// Unix socket in the rpc pass, or the node itself in the node pass.
type conn interface {
	Bid(ctx context.Context, hp core.Handprint) (int, int64, error)
	Query(ctx context.Context, sc *core.SuperChunk) ([]bool, error)
	Store(ctx context.Context, stream string, sc *core.SuperChunk) error
	Flush(ctx context.Context) error
	// ReadBatch returns payloads in request order and a release func.
	ReadBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([][]byte, func(), error)
	DecRef(ctx context.Context, fps []fingerprint.Fingerprint, ns []int64) error
	Compact(ctx context.Context) (store.CompactResult, error)
}

type rpcConn struct{ c *rpc.Client }

func (r rpcConn) Bid(ctx context.Context, hp core.Handprint) (int, int64, error) {
	return r.c.Bid(ctx, hp)
}
func (r rpcConn) Query(ctx context.Context, sc *core.SuperChunk) ([]bool, error) {
	return r.c.Query(ctx, sc)
}
func (r rpcConn) Store(ctx context.Context, stream string, sc *core.SuperChunk) error {
	return r.c.Store(ctx, stream, sc, true)
}
func (r rpcConn) Flush(ctx context.Context) error { return r.c.Flush(ctx) }
func (r rpcConn) ReadBatch(ctx context.Context, fps []fingerprint.Fingerprint) ([][]byte, func(), error) {
	b, err := r.c.ReadBatch(ctx, fps)
	if err != nil {
		return nil, nil, err
	}
	return b.Data, b.Release, nil
}
func (r rpcConn) DecRef(ctx context.Context, fps []fingerprint.Fingerprint, ns []int64) error {
	return r.c.DecRef(ctx, fps, ns)
}
func (r rpcConn) Compact(ctx context.Context) (store.CompactResult, error) {
	return r.c.Compact(ctx, 0)
}

// nodeConn calls the node as the rpc server's handlers do.
type nodeConn struct{ n *node.Node }

func (c nodeConn) Bid(_ context.Context, hp core.Handprint) (int, int64, error) {
	return c.n.CountHandprintMatches(hp), c.n.StorageUsage(), nil
}
func (c nodeConn) Query(_ context.Context, sc *core.SuperChunk) ([]bool, error) {
	return c.n.QuerySuperChunk(sc), nil
}
func (c nodeConn) Store(_ context.Context, stream string, sc *core.SuperChunk) error {
	_, err := c.n.StoreSuperChunk(stream, sc)
	return err
}
func (c nodeConn) Flush(context.Context) error { return c.n.Flush() }
func (c nodeConn) ReadBatch(_ context.Context, fps []fingerprint.Fingerprint) ([][]byte, func(), error) {
	datas, idx, err := c.n.ReadChunkBatch(fps)
	if err != nil {
		return nil, nil, err
	}
	out := make([][]byte, len(fps))
	for i, d := range datas {
		out[idx[i]] = d
	}
	return out, func() {}, nil
}
func (c nodeConn) DecRef(_ context.Context, fps []fingerprint.Fingerprint, ns []int64) error {
	return c.n.DecRef(fps, ns)
}
func (c nodeConn) Compact(ctx context.Context) (store.CompactResult, error) {
	return c.n.Compact(ctx, 0)
}

// replayEnv is one deployment for a replay pass: durable nodes, served
// over Unix sockets in the rpc pass, plus an in-process director.
type replayEnv struct {
	dir     string
	nodes   []*node.Node
	servers []*rpc.Server
	clients []*rpc.Client
	conns   []conn
}

func newReplayEnv(work string, n int, cacheBytes int64, overRPC bool) (*replayEnv, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "t")
	if err != nil {
		return nil, err
	}
	e := &replayEnv{dir: dir}
	for i := 0; i < n; i++ {
		nd, err := node.New(node.Config{ID: i, KeepPayloads: true, Dir: fmt.Sprintf("%s/node%d", dir, i), ReadCacheBytes: cacheBytes})
		if err != nil {
			e.close()
			return nil, err
		}
		e.nodes = append(e.nodes, nd)
		if !overRPC {
			e.conns = append(e.conns, nodeConn{nd})
			continue
		}
		srv, err := rpc.NewServer(nd, fmt.Sprintf("unix:%s/n%d.sock", dir, i))
		if err != nil {
			e.close()
			return nil, err
		}
		e.servers = append(e.servers, srv)
		c, err := rpc.Dial(srv.Addr())
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
		e.conns = append(e.conns, rpcConn{c})
	}
	return e, nil
}

// close stops the deployment and removes its directory; calling it
// again is a no-op.
func (e *replayEnv) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	for _, c := range e.clients {
		keep(c.Close())
	}
	for _, s := range e.servers {
		keep(s.Close())
	}
	for _, n := range e.nodes {
		keep(n.Close())
	}
	e.clients, e.servers, e.nodes, e.conns = nil, nil, nil, nil
	keep(os.RemoveAll(e.dir))
	return first
}

// nodeCounters is a snapshot of the store and container counters the
// per-layer metrics are deltas of.
type nodeCounters struct {
	logicalChunks, uniqueChunks int64
	cacheHits, diskIndexHits    uint64
	diskReads, bloomSkips       uint64
	rcHits, rcMisses, rcEvict   uint64
	containers, retired         int64
	copied                      int64
	live                        int64
	logical, physical           int64
}

func (e *replayEnv) counters() nodeCounters {
	var c nodeCounters
	for _, n := range e.nodes {
		st := n.Stats()
		c.logicalChunks += st.LogicalChunks
		c.uniqueChunks += st.UniqueChunks
		c.cacheHits += st.CacheHits
		c.diskIndexHits += st.DiskIndexHits
		c.logical += st.LogicalBytes
		c.physical += st.PhysicalBytes
		dr, bs := n.DiskIndexStats()
		c.diskReads += dr
		c.bloomSkips += bs
		rc := n.ReadCacheStats()
		c.rcHits += rc.Hits
		c.rcMisses += rc.Misses
		c.rcEvict += rc.Evictions
		gc := n.GCStats()
		c.containers += int64(gc.Containers)
		c.retired += gc.RetiredContainers
		c.copied += gc.CopiedBytes
		c.live += gc.LiveBytes
	}
	return c
}

func (c nodeCounters) minus(o nodeCounters) nodeCounters {
	return nodeCounters{
		logicalChunks: c.logicalChunks - o.logicalChunks,
		uniqueChunks:  c.uniqueChunks - o.uniqueChunks,
		cacheHits:     c.cacheHits - o.cacheHits,
		diskIndexHits: c.diskIndexHits - o.diskIndexHits,
		diskReads:     c.diskReads - o.diskReads,
		bloomSkips:    c.bloomSkips - o.bloomSkips,
		rcHits:        c.rcHits - o.rcHits,
		rcMisses:      c.rcMisses - o.rcMisses,
		rcEvict:       c.rcEvict - o.rcEvict,
		containers:    c.containers - o.containers,
		retired:       c.retired - o.retired,
		copied:        c.copied - o.copied,
		live:          c.live,
		logical:       c.logical - o.logical,
		physical:      c.physical - o.physical,
	}
}

// replayCounters are the counts the replay itself makes at the layer
// boundaries it times.
type replayCounters struct {
	logical      int64 // bytes backed up
	superChunks  int64
	candidates   int64 // candidate nodes summed over super-chunks
	payloadBytes int64 // chunk payload bytes sent to Store
	restored     int64 // bytes restored
}

// replay is the client call sequence over one deployment. tr is nil
// while set-up operations run, so they leave no spans.
type replay struct {
	tr      *tracer
	verb0   spanKind // spRPCBid or spNodeBid
	conns   []conn
	members core.Membership
	dir     *director.Director
	session uint64
	method  chunker.Method
	size    int
	algo    fingerprint.Algorithm
	stream  string
	n       replayCounters
}

func newReplay(ctx context.Context, e *replayEnv, overRPC bool, method chunker.Method, size int, algo fingerprint.Algorithm) (*replay, error) {
	ids := make([]int, len(e.conns))
	for i := range ids {
		ids[i] = i
	}
	d := director.New()
	sess, err := d.BeginSession(ctx, "perfbench-replay", "")
	if err != nil {
		return nil, err
	}
	r := &replay{
		verb0: spNodeBid, conns: e.conns, members: core.NewMembership(1, ids),
		dir: d, session: sess, method: method, size: size, algo: algo, stream: "perfbench-replay",
	}
	if overRPC {
		r.verb0 = spRPCBid
	}
	return r, nil
}

// verb maps an rpc verb span to this pass's span (rpc or node).
func (r *replay) verb(k spanKind) spanKind { return k - spRPCBid + r.verb0 }

// backup chunks, fingerprints, partitions and routes one stream, then
// records its recipe and flushes every node (seal and fsync).
func (r *replay) backup(ctx context.Context, name string, data []byte) error {
	tr := r.tr
	part, err := core.NewPartitioner(core.DefaultSuperChunkSize, r.algo, true)
	if err != nil {
		return err
	}
	ck, err := chunker.New(r.method, bytes.NewReader(data), r.size)
	if err != nil {
		return err
	}
	var entries []director.ChunkEntry
	for {
		id := tr.begin(spChunkerNext)
		ch, err := ck.Next()
		tr.end(id)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		id = tr.begin(spFingerprintSum)
		fp := r.algo.Sum(ch.Data)
		tr.end(id)
		r.n.logical += int64(ch.Len())
		id = tr.begin(spPartition)
		sc := part.AddRef(core.ChunkRef{FP: fp, Size: ch.Len(), Data: ch.Data})
		tr.end(id)
		if sc != nil {
			if entries, err = r.route(ctx, sc, entries); err != nil {
				return err
			}
		}
	}
	if sc := part.Flush(); sc != nil {
		if entries, err = r.route(ctx, sc, entries); err != nil {
			return err
		}
	}
	id := tr.begin(spGetRecipe)
	_, err = r.dir.GetRecipe(ctx, name)
	tr.end(id)
	if err == nil {
		return fmt.Errorf("%s: backup names are never reused", name)
	}
	if !errors.Is(err, director.ErrNoRecipe) {
		return err
	}
	id = tr.begin(spPutRecipe)
	err = r.dir.PutRecipe(ctx, r.session, name, entries)
	tr.end(id)
	if err != nil {
		return err
	}
	for _, c := range r.conns {
		id := tr.begin(r.verb(spRPCFlush))
		err := c.Flush(ctx)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// route is Algorithm 1 for one super-chunk: handprint, candidates, one
// bid per candidate, target selection; then the batched duplicate query
// and the store of the unique payloads on the target.
func (r *replay) route(ctx context.Context, sc *core.SuperChunk, entries []director.ChunkEntry) ([]director.ChunkEntry, error) {
	tr := r.tr
	plan := tr.begin(spRoutePlan)
	hp := sc.Handprint(core.DefaultHandprintSize)
	cands := r.members.Candidates(hp, sc.Seed())
	counts := make([]int, len(cands))
	usage := make([]int64, len(cands))
	for i, cand := range cands {
		id := tr.begin(r.verb(spRPCBid))
		var err error
		counts[i], usage[i], err = r.conns[cand].Bid(ctx, hp)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	target := core.SelectTarget(cands, counts, usage).Node
	tr.end(plan)
	r.n.superChunks++
	r.n.candidates += int64(len(cands))

	id := tr.begin(r.verb(spRPCQuery))
	dup, err := r.conns[target].Query(ctx, sc)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(r.verb(spRPCStore))
	send := &core.SuperChunk{FileID: sc.FileID, Chunks: make([]core.ChunkRef, len(sc.Chunks))}
	for i, ch := range sc.Chunks {
		send.Chunks[i] = core.ChunkRef{FP: ch.FP, Size: ch.Size}
		if i >= len(dup) || !dup[i] {
			send.Chunks[i].Data = ch.Data
			r.n.payloadBytes += int64(ch.Size)
		}
	}
	err = r.conns[target].Store(ctx, r.stream, send)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	for _, ch := range sc.Chunks {
		entries = append(entries, director.ChunkEntry{FP: ch.FP, Size: int32(ch.Size), Node: int32(target), Replica: -1})
	}
	return entries, nil
}

// restore fetches one recipe window by window, one batched read per node
// per window, writes the payloads to sink in stream order and compares
// the result with want.
func (r *replay) restore(ctx context.Context, name string, want []byte, sink []byte) ([]byte, error) {
	tr := r.tr
	id := tr.begin(spGetRecipe)
	rec, err := r.dir.GetRecipe(ctx, name)
	tr.end(id)
	if err != nil {
		return sink, err
	}
	sink = sink[:0]
	entries := rec.Chunks
	for start := 0; start < len(entries); {
		plan := tr.begin(spClientPlan)
		end, size := start, int64(0)
		for end < len(entries) && (end == start || size+int64(entries[end].Size) <= client.DefaultRestoreWindowBytes) {
			size += int64(entries[end].Size)
			end++
		}
		win := entries[start:end]
		fps := make(map[int32][]fingerprint.Fingerprint)
		idx := make(map[int32]map[fingerprint.Fingerprint]int)
		for _, e := range win {
			if idx[e.Node] == nil {
				idx[e.Node] = make(map[fingerprint.Fingerprint]int)
			}
			if _, ok := idx[e.Node][e.FP]; !ok {
				idx[e.Node][e.FP] = len(fps[e.Node])
				fps[e.Node] = append(fps[e.Node], e.FP)
			}
		}
		nodes := sortedKeys(fps)
		tr.end(plan)
		datas := make(map[int32][][]byte, len(nodes))
		var releases []func()
		for _, nd := range nodes {
			id := tr.begin(r.verb(spRPCReadBatch))
			d, release, err := r.conns[nd].ReadBatch(ctx, fps[nd])
			tr.end(id)
			if err != nil {
				return sink, err
			}
			datas[nd] = d
			releases = append(releases, release)
		}
		id := tr.begin(spSink)
		for _, e := range win {
			sink = append(sink, datas[e.Node][idx[e.Node][e.FP]]...)
		}
		for _, release := range releases {
			release()
		}
		tr.end(id)
		start = end
	}
	r.n.restored += int64(len(sink))
	id = tr.begin(spSink)
	same := bytes.Equal(sink, want)
	tr.end(id)
	if !same {
		return sink, fmt.Errorf("restore %s: %d bytes differ from the image backed up", name, len(sink))
	}
	return sink, nil
}

// remove deletes a recipe and releases its references node by node.
func (r *replay) remove(ctx context.Context, name string) error {
	tr := r.tr
	id := tr.begin(spDeleteRecipe)
	rec, err := r.dir.DeleteRecipe(ctx, name)
	tr.end(id)
	if err != nil {
		return err
	}
	plan := tr.begin(spClientPlan)
	byNode := make(map[int32][]fingerprint.Fingerprint)
	for _, e := range rec.Chunks {
		byNode[e.Node] = append(byNode[e.Node], e.FP)
	}
	nodes := sortedKeys(byNode)
	tr.end(plan)
	for _, nd := range nodes {
		plan := tr.begin(spClientPlan)
		order, ns := core.AggregateRefs(byNode[nd])
		tr.end(plan)
		id := tr.begin(r.verb(spRPCDecRef))
		err := r.conns[nd].DecRef(ctx, order, ns)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// compact runs one compaction scan on every node.
func (r *replay) compact(ctx context.Context) error {
	for _, c := range r.conns {
		id := r.tr.begin(r.verb(spRPCCompact))
		_, err := c.Compact(ctx)
		r.tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[int32]V) []int32 {
	out := make([]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
