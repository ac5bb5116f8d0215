package main

import (
	"fmt"
	"time"
)

// perLayer turns the passes of a traced run into the per-layer metrics:
// for every span its call count and its share of the traced pass's wall
// time, and the layer ratios, each printed with its base. Every workload
// reports every metric; a layer a workload does not exercise reads 0.
func perLayer(workload string, a, off, b *passOut, e2e *result) ([]metric, []ratioMetric, []string) {
	sa, sb := a.tr.aggregate(), b.tr.aggregate()
	// An rpc span covers the node's handling of the call; the node pass
	// times that handling alone, so the rpc layer keeps the difference.
	var st [numSpans]layerStat
	for k := spanKind(0); k < numSpans; k++ {
		switch {
		case k >= spRPCBid && k < spNodeBid:
			st[k] = layerStat{self: sa[k].self - sb[k+nodeOffset].self, calls: sa[k].calls}
		case k >= spNodeBid:
			st[k] = sb[k]
		default:
			st[k] = sa[k]
		}
	}
	wall := a.wall
	var accounted, nonBench time.Duration
	for k, s := range st {
		accounted += s.self
		if spanKind(k) != spSource && spanKind(k) != spSink {
			nonBench += s.self
		}
	}

	lines := []string{
		fmt.Sprintf("workload %s: traced replay of %d ops, %.3f s wall (spans off: %.3f s), %d spans",
			workload, a.ops, wall.Seconds(), off.wall.Seconds(), len(a.tr.spans)+spanCount(b.tr)),
		fmt.Sprintf("  %-28s %12s %10s %10s", "span", "self_ms", "calls", "self_share"),
	}
	var layers []metric
	for k := spanKind(0); k < numSpans; k++ {
		name := spanNames[k]
		share := ratio(float64(st[k].self), float64(wall))
		ms := float64(st[k].self) / float64(time.Millisecond)
		lines = append(lines, fmt.Sprintf("  %-28s %12.3f %10d %10.4f", name, ms, st[k].calls, share))
		layers = append(layers,
			metric{Name: name + ".self_share", Value: share, Unit: "share"},
			metric{Name: name + ".calls", Value: float64(st[k].calls), Unit: "count"})
	}

	n, nd := a.n, a.node
	mb := func(x int64) float64 { return float64(x) / (1 << 20) }
	secs := func(k spanKind) float64 { return st[k].self.Seconds() }
	superChunks, candidates := n.superChunks, n.candidates
	var lookups int64
	if workload == "sim_tree" {
		superChunks, candidates = a.sim.SuperChunks, a.sim.BidsSent
		lookups = a.sim.PreRoutingMsgs + a.sim.AfterRoutingMsgs
	}
	routeCalls := st[spRPCBid].calls + st[spRPCQuery].calls + st[spRPCStore].calls + st[spRPCFlush].calls
	dirCalls := st[spPutRecipe].calls + st[spGetRecipe].calls + st[spDeleteRecipe].calls
	dupVerdicts := nd.cacheHits + nd.diskIndexHits
	overlap := nonBench - e2e.opTime

	r := func(name, unit string, v float64, base string, args ...any) ratioMetric {
		return ratioMetric{metric{Name: name, Value: v, Unit: unit}, fmt.Sprintf(base, args...)}
	}
	ratios := []ratioMetric{
		r("chunker.mb_s", "MB/s", ratio(mb(n.logical), secs(spChunkerNext)),
			"%.1f MB chunked / %.3f s chunker.next self", mb(n.logical), secs(spChunkerNext)),
		r("fingerprint.mb_s", "MB/s", ratio(mb(n.logical), secs(spFingerprintSum)),
			"%.1f MB hashed / %.3f s fingerprint.sum self", mb(n.logical), secs(spFingerprintSum)),
		r("core.super_chunks", "count", float64(superChunks), "super-chunks routed in %d ops", a.ops),
		r("core.candidates_per_sc", "ratio", ratio(float64(candidates), float64(superChunks)),
			"%d candidate bids / %d super-chunks", candidates, superChunks),
		r("router.lookups_per_sc", "ratio", ratio(float64(lookups), float64(superChunks)),
			"%d fingerprint-lookup messages / %d super-chunks (simulator)", lookups, superChunks),
		r("router.normalized_dr", "ratio", a.normalizedDR, "cluster dedup ratio / exact single-node dedup ratio (simulator)"),
		r("rpc.calls_per_sc", "ratio", ratio(float64(routeCalls), float64(superChunks)),
			"%d bid+query+store+flush calls / %d super-chunks", routeCalls, superChunks),
		r("rpc.bids_per_sc", "ratio", ratio(float64(st[spRPCBid].calls), float64(superChunks)),
			"%d bid calls / %d super-chunks", st[spRPCBid].calls, superChunks),
		r("rpc.payload_bytes_per_logical_byte", "ratio", ratio(float64(n.payloadBytes), float64(n.logical)),
			"%.1f MB payload stored / %.1f MB backed up", mb(n.payloadBytes), mb(n.logical)),
		r("rpc.read_batches_per_mb", "ratio", ratio(float64(st[spRPCReadBatch].calls), mb(n.restored)),
			"%d read_batch calls / %.1f MB restored", st[spRPCReadBatch].calls, mb(n.restored)),
		r("store.dup_chunk_share", "ratio", 1-ratio(float64(nd.uniqueChunks), float64(nd.logicalChunks)),
			"1 - %d unique / %d chunks presented to nodes", nd.uniqueChunks, nd.logicalChunks),
		r("store.fpcache_hit_rate", "ratio", ratio(float64(nd.cacheHits), float64(dupVerdicts)),
			"%d cache verdicts / %d duplicate verdicts", nd.cacheHits, dupVerdicts),
		r("store.disk_index_reads", "count", float64(nd.diskReads), "on-disk chunk index reads in %d ops", a.ops),
		r("store.bloom_skips", "count", float64(nd.bloomSkips), "chunk index reads the Bloom filter saved in %d ops", a.ops),
		r("container.read_cache_hit_rate", "ratio", ratio(float64(nd.rcHits), float64(nd.rcHits+nd.rcMisses)),
			"%d hits / %d region reads", nd.rcHits, nd.rcHits+nd.rcMisses),
		r("container.read_cache_evictions", "count", float64(nd.rcEvict), "region-cache evictions in %d ops", a.ops),
		r("container.sealed", "count", float64(nd.containers+nd.retired), "containers sealed in %d ops", a.ops),
		r("container.retired", "count", float64(nd.retired), "containers retired by compaction in %d ops", a.ops),
		r("container.bytes_rewritten", "bytes", float64(nd.copied), "live bytes compaction copied in %d ops", a.ops),
		r("director.calls_per_op", "ratio", ratio(float64(dirCalls), float64(a.ops)),
			"%d put+get+delete recipe calls / %d ops", dirCalls, a.ops),
		r("client.peak_buffered_mb", "MB", mb(e2e.client.PeakBufferedBytes), "real client, same %d ops", a.ops),
		r("client.chunk_buf_allocs", "count", float64(e2e.client.ChunkBufAllocs), "real client, same %d ops", a.ops),
		r("client.restore_rpcs", "count", float64(e2e.client.RestoreRPCs), "real client, same %d ops", a.ops),
		r("client.overlap_ms", "ms", float64(overlap)/float64(time.Millisecond),
			"%.3f s replay self time outside bench.* - %.3f s real client op time", nonBench.Seconds(), e2e.opTime.Seconds()),
		r("trace.replay_ms", "ms", float64(wall)/float64(time.Millisecond), "wall time of the traced pass's %d ops", a.ops),
		r("trace.unaccounted_share", "share", 1-ratio(float64(accounted), float64(wall)),
			"1 - %.3f s summed self time / %.3f s wall", accounted.Seconds(), wall.Seconds()),
		r("trace.overhead_share", "share", ratio(float64(wall-off.wall), float64(off.wall)),
			"(%.3f s spans on - %.3f s spans off) / spans off", wall.Seconds(), off.wall.Seconds()),
	}
	lines = append(lines, "  ratios (value = base):")
	for _, x := range ratios {
		lines = append(lines, x.String())
	}
	for k := spRPCBid; k < spNodeBid; k++ {
		if sa[k].calls != sb[k+nodeOffset].calls {
			lines = append(lines, fmt.Sprintf("  note: %s made %d calls but %s %d; the node split of this verb is approximate",
				spanNames[k], sa[k].calls, spanNames[k+nodeOffset], sb[k+nodeOffset].calls))
		}
		// The two passes run on separate deployments, so fsync and cache
		// noise can leave the node pass slower than the rpc pass.
		if st[k].self < 0 {
			lines = append(lines, fmt.Sprintf("  note: %s self time is negative (%.3f ms): %s took longer than the rpc pass's span; the rpc residual of this verb is noise, not a saving",
				spanNames[k], float64(st[k].self)/float64(time.Millisecond), spanNames[k+nodeOffset]))
		}
	}
	return layers, ratios, lines
}

func spanCount(t *tracer) int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}
