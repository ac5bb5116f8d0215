package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"sigmadedupe/internal/chunker"
	"sigmadedupe/internal/cluster"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/router"
	"sigmadedupe/internal/workload"
)

// A traced run makes four passes over the same operations:
//
//   - rpc: the replay over Unix sockets with spans on; it runs for a
//     quarter of --seconds (whole passes for sim_tree) and fixes the
//     operation count the other passes repeat;
//   - off: the same replay with spans off, for trace.overhead_share;
//   - node: the same call sequence on in-process nodes, which splits
//     each rpc span into node time and rpc (encode, socket, dispatch)
//     time;
//   - public: the same operations through the public API, for the real
//     client's counters and client.overlap_ms.
//
// sim_tree has no rpc layer: its replay feeds the simulator directly,
// and it makes the traced, untraced and public passes only.

// passOut is what one replay pass measured.
type passOut struct {
	ops               int
	wall              time.Duration // measured operations only
	tr                *tracer
	n                 replayCounters
	node              nodeCounters // deltas over the measured operations
	sim               cluster.Stats
	normalizedDR      float64
	attempted, failed int
	notes             []string
}

func (p *passOut) fail(format string, args ...any) {
	p.failed++
	p.notes = append(p.notes, "FAILED: "+fmt.Sprintf(format, args...))
}

// opBudget says whether operation op should run: exactly maxOps of them
// when maxOps is set, otherwise while the budget lasts (at least one,
// at most limit).
func opBudget(op, maxOps, limit int, start time.Time, budget time.Duration) bool {
	if maxOps > 0 {
		return op < maxOps
	}
	return op < limit && (op == 0 || time.Since(start) < budget)
}

func ingestPass(ctx context.Context, cfg runConfig, overRPC bool, tr *tracer, maxOps int, budget time.Duration) (*passOut, error) {
	sz := cfg.sz
	e, err := newReplayEnv(cfg.work, sz.nodes, 0, overRPC)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r, err := newReplay(ctx, e, overRPC, chunker.FastCDC, 8<<10, fingerprint.SHA256)
	if err != nil {
		return nil, err
	}
	out := &passOut{tr: tr}
	buf := make([]byte, sz.ingestOpMB<<20)
	before := e.counters()
	r.tr = tr
	start := time.Now()
	for op := 0; opBudget(op, maxOps, sz.ingestOpsPerRound, start, budget); op++ {
		tr.setOp(op)
		id := tr.begin(spSource)
		uniqueStream(buf, cfg.seed, 0, op)
		tr.end(id)
		out.attempted++
		if err := r.backup(ctx, fmt.Sprintf("/unique/op%04d", op), buf); err != nil {
			out.fail("backup %d: %v", op, err)
			break
		}
		out.ops++
	}
	out.wall = time.Since(start)
	out.node = e.counters().minus(before)
	out.n = r.n
	out.attempted++
	if out.node.logical != r.n.logical || out.node.physical != r.n.logical {
		out.fail("logical %d physical %d, want both %d", out.node.logical, out.node.physical, r.n.logical)
	}
	return out, e.close()
}

func churnPass(ctx context.Context, cfg runConfig, overRPC bool, tr *tracer, maxOps int, budget time.Duration) (*passOut, error) {
	sz := cfg.sz
	e, err := newReplayEnv(cfg.work, sz.nodes, sz.churnCacheBytes, overRPC)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r, err := newReplay(ctx, e, overRPC, chunker.Fixed, 4<<10, fingerprint.SHA1)
	if err != nil {
		return nil, err
	}
	out := &passOut{tr: tr}
	imageBytes := int64(sz.churnImageMB) << 20
	aging := workload.NewAging(workload.AgingConfig{Seed: cfg.seed, Blocks: int(imageBytes / workload.BlockSize)})
	img := make([]byte, imageBytes)
	sink := make([]byte, 0, imageBytes)
	gen := 0
	backupGen := func() error {
		id := r.tr.begin(spSource)
		img = materialize(aging.Next(), img)
		r.tr.end(id)
		err := r.backup(ctx, genName(gen), img)
		gen++
		return err
	}
	for gen < sz.churnRetention {
		if err := backupGen(); err != nil {
			return nil, fmt.Errorf("retention fill: %w", err)
		}
	}
	before := e.counters()
	r.tr = tr
	start := time.Now()
	for c := 0; opBudget(c, maxOps, sz.churnCycles, start, budget); c++ {
		tr.setOp(c)
		out.attempted++
		if err := backupGen(); err != nil {
			out.fail("backup %s: %v", genName(gen-1), err)
			break
		}
		newest := gen - 1
		out.attempted++
		if err := r.remove(ctx, genName(newest-sz.churnRetention)); err != nil {
			out.fail("delete: %v", err)
			break
		}
		if (c+1)%sz.churnCompactEvery == 0 {
			out.attempted++
			if err := r.compact(ctx); err != nil {
				out.fail("compact: %v", err)
				break
			}
		}
		out.attempted++
		if sink, err = r.restore(ctx, genName(newest), img, sink); err != nil {
			out.fail("%v", err)
			break
		}
		out.ops++
	}
	out.wall = time.Since(start)
	out.node = e.counters().minus(before)
	out.n = r.n
	r.tr = nil
	out.attempted++
	for g := gen - sz.churnRetention; g < gen; g++ {
		if err = r.remove(ctx, genName(g)); err != nil {
			break
		}
	}
	if err == nil {
		err = r.compact(ctx)
	}
	switch {
	case err != nil:
		out.fail("delete-all: %v", err)
	case e.counters().live != 0:
		out.fail("%d live bytes after deleting every backup", e.counters().live)
	}
	return out, e.close()
}

// simPass replays whole passes of the linux tree into a fresh simulator
// each: chunk and fingerprint every file, then feed the references to
// the cluster stream.
func simPass(ctx context.Context, cfg runConfig, batches []fileBatch, tr *tracer, maxPasses int, budget time.Duration) (*passOut, error) {
	sz := cfg.sz
	out := &passOut{tr: tr}
	var buf []byte
	var want int64
	for _, v := range batches {
		want += v.bytes
	}
	op := 0
	more := func(pass int) bool {
		if maxPasses > 0 {
			return pass < maxPasses
		}
		return pass == 0 || out.wall < budget
	}
	for pass := 0; more(pass); pass++ {
		cl, err := cluster.New(cluster.Config{N: sz.simNodes, Scheme: router.Sigma, TrackRecipes: true})
		if err != nil {
			return nil, err
		}
		st, err := cl.Stream("perfbench-tree")
		if err != nil {
			cl.Close()
			return nil, err
		}
		exact := cluster.NewExactTracker()
		var fileID uint64
		start := time.Now()
		for _, v := range batches {
			tr.setOp(op)
			op++
			out.attempted++
			var spans [][2]int
			id := tr.begin(spSource)
			buf, spans = materializeBatch(v, buf)
			tr.end(id)
			for i := range v.files {
				refs, err := chunkFile(tr, buf[spans[i][0]:spans[i][1]], &out.n)
				if err != nil {
					cl.Close()
					return nil, err
				}
				fileID++
				st.BeginItem(fileID)
				for _, ref := range refs {
					id := tr.begin(spAddChunk)
					_, err = st.AddChunk(ctx, ref)
					tr.end(id)
					if err != nil {
						break
					}
				}
				if err == nil {
					id := tr.begin(spClusterFlush)
					_, err = st.EndItem(ctx)
					tr.end(id)
				}
				if err != nil {
					cl.Close()
					return nil, err
				}
				id := tr.begin(spSink)
				exact.Add(refs)
				tr.end(id)
			}
			id = tr.begin(spClusterFlush)
			err := st.Flush()
			tr.end(id)
			if err != nil {
				cl.Close()
				return nil, err
			}
			out.ops++
		}
		out.wall += time.Since(start)
		st.Close()
		s := cl.Stats()
		out.attempted++
		if s.LogicalBytes != want {
			out.fail("pass %d: simulator saw %d logical bytes, want %d", pass, s.LogicalBytes, want)
		}
		addClusterStats(&out.sim, s)
		out.node = out.node.plus((&replayEnv{nodes: cl.Nodes()}).counters())
		out.normalizedDR = cl.NormalizedDR(exact.Physical())
		if err := cl.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// chunkFile chunks and fingerprints one file as the simulator session
// does (fixed 4 KB, SHA-1, payloads dropped once hashed).
func chunkFile(tr *tracer, data []byte, n *replayCounters) ([]core.ChunkRef, error) {
	ck, err := chunker.New(chunker.Fixed, bytes.NewReader(data), 4<<10)
	if err != nil {
		return nil, err
	}
	var refs []core.ChunkRef
	for {
		id := tr.begin(spChunkerNext)
		ch, err := ck.Next()
		tr.end(id)
		if err == io.EOF {
			return refs, nil
		}
		if err != nil {
			return nil, err
		}
		id = tr.begin(spFingerprintSum)
		fp := fingerprint.SHA1.Sum(ch.Data)
		tr.end(id)
		refs = append(refs, core.ChunkRef{FP: fp, Size: ch.Len()})
		n.logical += int64(ch.Len())
	}
}

func addClusterStats(dst *cluster.Stats, s cluster.Stats) {
	dst.LogicalBytes += s.LogicalBytes
	dst.SuperChunks += s.SuperChunks
	dst.PreRoutingMsgs += s.PreRoutingMsgs
	dst.AfterRoutingMsgs += s.AfterRoutingMsgs
	dst.BidsSent += s.BidsSent
}

func (c nodeCounters) plus(o nodeCounters) nodeCounters {
	return nodeCounters{
		logicalChunks: c.logicalChunks + o.logicalChunks,
		uniqueChunks:  c.uniqueChunks + o.uniqueChunks,
		cacheHits:     c.cacheHits + o.cacheHits,
		diskIndexHits: c.diskIndexHits + o.diskIndexHits,
		diskReads:     c.diskReads + o.diskReads,
		bloomSkips:    c.bloomSkips + o.bloomSkips,
		rcHits:        c.rcHits + o.rcHits,
		rcMisses:      c.rcMisses + o.rcMisses,
		rcEvict:       c.rcEvict + o.rcEvict,
		containers:    c.containers + o.containers,
		retired:       c.retired + o.retired,
		copied:        c.copied + o.copied,
		live:          c.live + o.live,
		logical:       c.logical + o.logical,
		physical:      c.physical + o.physical,
	}
}

// runTraced makes the passes, checks that the rpc and node passes made
// the same calls, and assembles the per-layer metrics.
func runTraced(ctx context.Context, cfg runConfig, runDir string) (report, error) {
	budget := time.Duration(cfg.seconds * float64(time.Second) / 4)
	var a, off, b *passOut
	var err error
	switch cfg.workload {
	case "sim_tree":
		batches, verr := linuxBatches(cfg.seed, cfg.sz.simScale, cfg.sz.simBatchBytes)
		if verr != nil {
			return report{}, verr
		}
		if a, err = simPass(ctx, cfg, batches, newTracer(), 0, budget); err != nil {
			return report{}, err
		}
		passes := a.ops / len(batches)
		if off, err = simPass(ctx, cfg, batches, nil, passes, 0); err != nil {
			return report{}, err
		}
		b = &passOut{}
	default:
		pass := ingestPass
		if cfg.workload == "churn_cycle" {
			pass = churnPass
		}
		if a, err = pass(ctx, cfg, true, newTracer(), 0, budget); err != nil {
			return report{}, err
		}
		if off, err = pass(ctx, cfg, true, nil, a.ops, 0); err != nil {
			return report{}, err
		}
		if b, err = pass(ctx, cfg, false, newTracer(), a.ops, 0); err != nil {
			return report{}, err
		}
	}
	pub := cfg
	pub.maxOps = a.ops
	e2e, err := workloads[cfg.workload](ctx, pub)
	if err != nil {
		return report{}, err
	}
	passes := map[string]*tracer{"rpc": a.tr, "node": b.tr}
	if cfg.workload == "sim_tree" {
		passes = map[string]*tracer{"sim": a.tr}
	}
	if err := dumpSpans(filepath.Join(runDir, "spans.jsonl.gz"), passes); err != nil {
		return report{}, err
	}
	rep := report{
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Trace:     1,
		Attempted: a.attempted + off.attempted + b.attempted + e2e.attempted,
		Failed:    a.failed + off.failed + b.failed + e2e.failed,
	}
	rep.Notes = append(rep.Notes, a.notes...)
	rep.Notes = append(rep.Notes, off.notes...)
	rep.Notes = append(rep.Notes, b.notes...)
	rep.Notes = append(rep.Notes, e2e.notes...)
	layers, ratios, lines := perLayer(cfg.workload, a, off, b, e2e)
	rep.Metrics = byName(append(layers, metricsOf(ratios)...))
	rep.lines = append(lines, rep.Notes...)
	return rep, nil
}

func metricsOf(rs []ratioMetric) []metric {
	out := make([]metric, len(rs))
	for i, r := range rs {
		out[i] = r.metric
	}
	return out
}
