package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sigmadedupe"
	"sigmadedupe/internal/workload"
)

// The end-to-end runs below use only the public sigmadedupe API, so a
// rewrite of the internal client or simulator does not touch the
// measured path. Every workload is a closed loop: one client, one
// backup stream, the next operation issued when the previous returns.

// sizes holds every size the workloads depend on. The benchmark runs
// fullSizes; the self-test shrinks them.
type sizes struct {
	nodes int

	ingestOpMB        int // one unique stream per operation
	ingestOpsPerRound int // operations on one fresh cluster

	churnImageMB      int   // the aging image, restored every cycle
	churnCacheBytes   int64 // read-region cache per node
	churnRetention    int   // generations kept restorable
	churnCompactEvery int   // cycles between compactions
	churnCycles       int   // measured cycles on one fresh cluster

	simNodes      int
	simScale      float64 // linux generator scale
	simBatchBytes int64   // files per sim_tree operation, by size

	// minOps is the fewest backup operations a run makes, whatever its
	// duration, so its tail percentile always has tailBeyond samples.
	minOps map[string]int
}

var fullSizes = sizes{
	nodes:             4,
	ingestOpMB:        32,
	ingestOpsPerRound: 4,
	churnImageMB:      64,
	churnCacheBytes:   8 << 20,
	churnRetention:    8,
	churnCompactEvery: 4,
	churnCycles:       24,
	simNodes:          128,
	simScale:          1,
	simBatchBytes:     8 << 20,
	minOps:            map[string]int{"ingest_unique": 100, "churn_cycle": 40, "sim_tree": 200},
}

// runConfig is one invocation of a workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	work     string // directory for node stores and sockets
	sz       sizes
	// maxOps, when positive, makes the run exactly that many backup
	// operations on one cluster instead of running for seconds: the
	// traced run replays the same operations through the public API.
	maxOps int
	// sabotage corrupts one byte of every expected restore image, so the
	// self-test can prove a wrong restore is counted as a failed op.
	sabotage bool
}

// result is what one workload run measured.
type result struct {
	attempted, failed int
	// gated are the end-to-end metrics every workload reports; extra are
	// the ones only some workloads have.
	gated, extra []metric
	notes        []string
	// opTime sums every timed operation; client accumulates the real
	// client's session counters (peak buffered bytes as a maximum).
	opTime time.Duration
	client sigmadedupe.SessionStats
}

func (r *result) addClient(st sigmadedupe.SessionStats) {
	r.client.PeakBufferedBytes = max(r.client.PeakBufferedBytes, st.PeakBufferedBytes)
	r.client.ChunkBufAllocs += st.ChunkBufAllocs
	r.client.RestoreRPCs += st.RestoreRPCs
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	r.notes = append(r.notes, "FAILED: "+fmt.Sprintf(format, args...))
}

// deadline decides when a run has measured enough. It is checked
// between rounds, so a run is made of whole rounds and every run weighs
// the positions within a round (fresh store, aged image) alike.
type deadline struct {
	start  time.Time
	budget time.Duration
	minOps int
	maxOps int
}

func (d deadline) done(ops int) bool {
	if d.maxOps > 0 {
		return ops >= d.maxOps
	}
	return time.Since(d.start) >= d.budget && ops >= d.minOps
}

// capped reports whether a run limited to maxOps has made them all; it
// is the only check inside a round.
func (d deadline) capped(ops int) bool { return d.maxOps > 0 && ops >= d.maxOps }

func newDeadline(cfg runConfig) deadline {
	return deadline{
		start:  time.Now(),
		budget: time.Duration(cfg.seconds * float64(time.Second)),
		minOps: cfg.sz.minOps[cfg.workload],
		maxOps: cfg.maxOps,
	}
}

// remoteCluster is a TCP-prototype deployment: durable servers on Unix
// sockets inside one directory, a director, and one Remote client.
type remoteCluster struct {
	dir     string
	servers []*sigmadedupe.Server
	remote  *sigmadedupe.Remote
}

func startRemote(ctx context.Context, work string, nodes int, cacheBytes int64, rc sigmadedupe.RemoteConfig) (*remoteCluster, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "c")
	if err != nil {
		return nil, err
	}
	cl := &remoteCluster{dir: dir}
	for i := 0; i < nodes; i++ {
		srv, err := sigmadedupe.StartServer(sigmadedupe.ServerConfig{
			ID:             i,
			Addr:           fmt.Sprintf("unix:%s/n%d.sock", dir, i),
			Dir:            fmt.Sprintf("%s/node%d", dir, i),
			ReadCacheBytes: cacheBytes,
		})
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.servers = append(cl.servers, srv)
		rc.Nodes = append(rc.Nodes, srv.Addr())
	}
	rc.Director = sigmadedupe.NewDirector()
	if cl.remote, err = sigmadedupe.NewRemote(ctx, rc); err != nil {
		cl.close()
		return nil, err
	}
	return cl, nil
}

// diskBytes sums the sizes of every file the nodes keep on disk.
func (c *remoteCluster) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(c.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

func (c *remoteCluster) close() error {
	var first error
	if c.remote != nil {
		first = c.remote.Close()
	}
	for _, s := range c.servers {
		if err := s.Close(); first == nil {
			first = err
		}
	}
	if err := os.RemoveAll(c.dir); first == nil {
		first = err
	}
	return first
}

// ingestRemoteConfig is the README's throughput configuration.
func ingestRemoteConfig() sigmadedupe.RemoteConfig {
	return sigmadedupe.RemoteConfig{
		Name:           "perfbench-ingest",
		SuperChunkSize: 1 << 20,
		Chunk:          sigmadedupe.ChunkSpec{Method: sigmadedupe.ChunkFastCDC, Size: 8 << 10},
		Fingerprint:    sigmadedupe.FingerprintSHA256,
	}
}

// churnRemoteConfig is the paper's defaults.
func churnRemoteConfig() sigmadedupe.RemoteConfig {
	return sigmadedupe.RemoteConfig{
		Name:           "perfbench-churn",
		SuperChunkSize: 1 << 20,
		Chunk:          sigmadedupe.ChunkSpec{Method: sigmadedupe.ChunkFixed, Size: 4 << 10},
		Fingerprint:    sigmadedupe.FingerprintSHA1,
	}
}

// runIngestUnique: each operation backs up one fresh unique stream and
// flushes it (containers sealed and fsynced). Rounds of
// ingestOpsPerRound operations each run on a fresh cluster, so disk use
// and index size stay bounded however long the run.
func runIngestUnique(ctx context.Context, cfg runConfig) (*result, error) {
	sz := cfg.sz
	res := &result{}
	var setup, dedups, amp []float64
	var backup samples
	buf := make([]byte, sz.ingestOpMB<<20)
	rss := startRSSSampler()
	defer rss.close()
	var peaks []float64
	dl := newDeadline(cfg)
	for round := 0; !dl.done(backup.n()); round++ {
		settle()
		rss.roundPeak()
		failed := res.failed
		t0 := time.Now()
		cl, err := startRemote(ctx, cfg.work, sz.nodes, 0, ingestRemoteConfig())
		if err != nil {
			return nil, err
		}
		setupTime := time.Since(t0).Seconds()
		var logical int64
		for op := 0; op < sz.ingestOpsPerRound && !dl.capped(backup.n()); op++ {
			uniqueStream(buf, cfg.seed, round, op)
			name := fmt.Sprintf("/unique/r%d/op%04d", round, op)
			res.attempted++
			t := time.Now()
			err := cl.remote.Backup(ctx, name, bytes.NewReader(buf))
			if err == nil {
				err = cl.remote.Flush(ctx)
			}
			d := time.Since(t)
			if err != nil {
				res.fail("backup %s: %v", name, err)
				break
			}
			backup.add(d, int64(len(buf)))
			logical += int64(len(buf))
		}
		// Output check: unique input stores every byte exactly once.
		res.attempted++
		st, err := cl.remote.Stats(ctx)
		switch {
		case err != nil:
			res.fail("round %d stats: %v", round, err)
		case st.LogicalBytes != logical || st.PhysicalBytes != logical:
			res.fail("round %d: logical %d physical %d, want both %d", round, st.LogicalBytes, st.PhysicalBytes, logical)
		}
		var disk int64
		if logical > 0 {
			if disk, err = cl.diskBytes(); err != nil {
				cl.close()
				return nil, err
			}
		}
		res.addClient(cl.remote.BackupStats())
		peak := rss.roundPeak()
		if err := cl.close(); err != nil {
			return nil, err
		}
		ok := res.failed == failed
		backup.endRound(ok)
		if !ok {
			break
		}
		setup = append(setup, setupTime)
		peaks = append(peaks, peak)
		if logical > 0 {
			dedups = append(dedups, st.DedupRatio)
			amp = append(amp, float64(disk)/float64(logical))
		}
	}
	res.opTime = backup.total
	res.gated = backupMetrics(setup, &backup, dedups, peaks)
	res.extra = append(res.extra, metric{Name: "disk_bytes_per_live_byte", Value: median(amp), Unit: "ratio",
		Note: fmt.Sprintf("(median of %d rounds; write amplification)", len(amp))})
	return res, nil
}

// backupMetrics assembles the end-to-end metrics every workload reports.
func backupMetrics(setup []float64, backup *samples, dedups, rss []float64) []metric {
	tail, level := backup.tail()
	return []metric{
		{Name: "setup_s", Value: median(setup), Unit: "s", Note: fmt.Sprintf("(median of %d set-ups)", len(setup))},
		{Name: "backup_mb_s", Value: backup.mbPerSec(), Unit: "MB/s", Note: fmt.Sprintf("(median of %d rounds; n=%d ops, %.0f MB)", len(backup.rates), backup.n(), float64(backup.bytes)/(1<<20))},
		{Name: "backup_ms_p50", Value: backup.p50(), Unit: "ms", Note: fmt.Sprintf("(n=%d)", backup.n())},
		{Name: "backup_ms_tail", Value: tail, Unit: "ms", Note: fmt.Sprintf("(p%g, n=%d)", level, backup.n())},
		{Name: "dedup_ratio", Value: median(dedups), Unit: "ratio", Note: fmt.Sprintf("(median of %d rounds)", len(dedups))},
		{Name: "peak_rss_mb", Value: median(rss), Unit: "MB", Note: fmt.Sprintf("(median of %d round peaks)", len(rss))},
	}
}

// restoreSink collects a restore into a preallocated buffer; the
// comparison against the expected image happens after the timer stops.
type restoreSink struct{ buf []byte }

func (s *restoreSink) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

func genName(g int) string { return fmt.Sprintf("/churn/gen%05d", g) }

// runChurnCycle: a fresh cluster is filled with churnRetention
// generations of an aging image (set-up), then every cycle backs up the
// next generation, deletes the one leaving retention, compacts every
// churnCompactEvery cycles and restores the newest generation, checking
// it byte for byte.
func runChurnCycle(ctx context.Context, cfg runConfig) (*result, error) {
	sz := cfg.sz
	res := &result{}
	imageBytes := int64(sz.churnImageMB) << 20
	var setup, dedups, amp []float64
	var backup, restore, del, compact samples
	var hits, misses, evictions uint64
	img := make([]byte, imageBytes)
	sink := &restoreSink{buf: make([]byte, 0, imageBytes)}
	rss := startRSSSampler()
	defer rss.close()
	var peaks []float64
	dl := newDeadline(cfg)
	for round := 0; !dl.done(backup.n()); round++ {
		settle()
		rss.roundPeak()
		failed := res.failed
		t0 := time.Now()
		cl, err := startRemote(ctx, cfg.work, sz.nodes, sz.churnCacheBytes, churnRemoteConfig())
		if err != nil {
			return nil, err
		}
		setupTime := time.Since(t0)
		aging := workload.NewAging(workload.AgingConfig{Seed: cfg.seed, Blocks: int(imageBytes / workload.BlockSize)})
		gen := 0
		backupGen := func() (time.Duration, error) {
			img = materialize(aging.Next(), img)
			t := time.Now()
			err := cl.remote.Backup(ctx, genName(gen), bytes.NewReader(img))
			if err == nil {
				err = cl.remote.Flush(ctx)
			}
			gen++
			return time.Since(t), err
		}
		for gen < sz.churnRetention {
			d, err := backupGen()
			if err != nil {
				cl.close()
				return nil, fmt.Errorf("retention fill: %w", err)
			}
			setupTime += d
		}

		for c := 0; c < sz.churnCycles && !dl.capped(backup.n()); c++ {
			res.attempted++
			d, err := backupGen()
			if err != nil {
				res.fail("backup %s: %v", genName(gen-1), err)
				break
			}
			backup.add(d, imageBytes)
			newest := gen - 1

			res.attempted++
			t := time.Now()
			if err := cl.remote.Delete(ctx, genName(newest-sz.churnRetention)); err != nil {
				res.fail("delete %s: %v", genName(newest-sz.churnRetention), err)
				break
			}
			del.add(time.Since(t), 0)

			if (c+1)%sz.churnCompactEvery == 0 {
				res.attempted++
				t = time.Now()
				if _, err := cl.remote.Compact(ctx, 0); err != nil {
					res.fail("compact: %v", err)
					break
				}
				compact.add(time.Since(t), 0)
			}

			res.attempted++
			sink.buf = sink.buf[:0]
			t = time.Now()
			err = cl.remote.Restore(ctx, genName(newest), sink)
			d = time.Since(t)
			if cfg.sabotage {
				img[len(img)/2] ^= 0xff
			}
			switch {
			case err != nil:
				res.fail("restore %s: %v", genName(newest), err)
			case !bytes.Equal(sink.buf, img):
				res.fail("restore %s: %d bytes differ from the image backed up", genName(newest), len(sink.buf))
			default:
				restore.add(d, imageBytes)
			}
		}

		st, err := cl.remote.Stats(ctx)
		if err != nil {
			cl.close()
			return nil, err
		}
		disk, err := cl.diskBytes()
		if err != nil {
			cl.close()
			return nil, err
		}
		res.addClient(cl.remote.BackupStats())
		for _, s := range cl.servers {
			cs := s.ReadCacheStats()
			hits += cs.Hits
			misses += cs.Misses
			evictions += cs.Evictions
		}

		peak := rss.roundPeak()
		// Output check: deleting every retained generation and compacting
		// leaves no live bytes.
		res.attempted++
		if err := deleteAll(ctx, cl.remote, gen-sz.churnRetention, gen); err != nil {
			res.fail("round %d delete-all: %v", round, err)
		} else if gc, err := cl.remote.GCStats(ctx); err != nil {
			res.fail("round %d gc stats: %v", round, err)
		} else if gc.LiveBytes != 0 {
			res.fail("round %d: %d live bytes after deleting every backup", round, gc.LiveBytes)
		}
		if err := cl.close(); err != nil {
			return nil, err
		}
		ok := res.failed == failed
		for _, s := range []*samples{&backup, &restore, &del, &compact} {
			s.endRound(ok)
		}
		if !ok {
			break
		}
		setup = append(setup, setupTime.Seconds())
		peaks = append(peaks, peak)
		dedups = append(dedups, st.DedupRatio)
		amp = append(amp, float64(disk)/float64(int64(sz.churnRetention)*imageBytes))
	}
	res.opTime = backup.total + del.total + compact.total + restore.total
	res.gated = backupMetrics(setup, &backup, dedups, peaks)
	rtail, rlevel := restore.tail()
	res.extra = append(res.extra,
		metric{Name: "restore_mb_s", Value: restore.mbPerSec(), Unit: "MB/s", Note: fmt.Sprintf("(median of %d rounds; n=%d ops)", len(restore.rates), restore.n())},
		metric{Name: "restore_ms_p50", Value: restore.p50(), Unit: "ms", Note: fmt.Sprintf("(n=%d)", restore.n())},
		metric{Name: "restore_ms_tail", Value: rtail, Unit: "ms", Note: fmt.Sprintf("(p%g, n=%d)", rlevel, restore.n())},
		metric{Name: "delete_ms_p50", Value: del.p50(), Unit: "ms", Note: fmt.Sprintf("(n=%d)", del.n())},
		metric{Name: "compact_ms_p50", Value: compact.p50(), Unit: "ms", Note: fmt.Sprintf("(n=%d)", compact.n())},
		metric{Name: "disk_bytes_per_live_byte", Value: median(amp), Unit: "ratio",
			Note: fmt.Sprintf("(median of %d rounds; space after GC)", len(amp))},
		metric{Name: "read_cache_hit_rate", Value: ratio(float64(hits), float64(hits+misses)), Unit: "ratio",
			Note: fmt.Sprintf("(%d hits, %d misses, %d evictions)", hits, misses, evictions)},
	)
	return res, nil
}

func deleteAll(ctx context.Context, be *sigmadedupe.Remote, from, to int) error {
	for g := from; g < to; g++ {
		if err := be.Delete(ctx, genName(g)); err != nil {
			return err
		}
	}
	_, err := be.Compact(ctx, 0)
	return err
}

// settle collects the previous round's garbage before the next round
// starts, so every round's peak memory starts from the same floor. Freed
// pages stay with the process: returning them to the OS would make every
// round fault them back in, at a cost that depends on the host's memory
// pressure.
func settle() { runtime.GC() }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runSimTree: every pass backs up the 64 versions of the linux tree, one
// batch of files per operation, through one Session of a fresh 128-node
// simulator. Every run weighs the versions (first full copies of each
// series and small patch releases) equally.
func runSimTree(ctx context.Context, cfg runConfig) (*result, error) {
	sz := cfg.sz
	res := &result{}
	batches, err := linuxBatches(cfg.seed, sz.simScale, sz.simBatchBytes)
	if err != nil {
		return nil, err
	}
	var want int64
	for _, v := range batches {
		want += v.bytes
	}
	var setup, dedups, skews []float64
	var backup samples
	var buf []byte
	rss := startRSSSampler()
	defer rss.close()
	var peaks []float64
	dl := newDeadline(cfg)
	for pass := 0; !dl.done(backup.n()); pass++ {
		settle()
		rss.roundPeak()
		failed := res.failed
		t0 := time.Now()
		c, err := sigmadedupe.NewCluster(sigmadedupe.ClusterConfig{Nodes: sz.simNodes, Scheme: sigmadedupe.SchemeSigma})
		if err != nil {
			return nil, err
		}
		sess, err := c.NewSession(ctx, sigmadedupe.WithSessionName("perfbench-tree"))
		if err != nil {
			c.Close()
			return nil, err
		}
		setupTime := time.Since(t0).Seconds()
		for _, v := range batches {
			var spans [][2]int
			buf, spans = materializeBatch(v, buf)
			res.attempted++
			t := time.Now()
			for i, f := range v.files {
				if err = sess.Backup(ctx, f.Name, bytes.NewReader(buf[spans[i][0]:spans[i][1]])); err != nil {
					break
				}
			}
			if err == nil {
				err = sess.Flush(ctx)
			}
			d := time.Since(t)
			if err != nil {
				res.fail("pass %d backup: %v", pass, err)
				break
			}
			backup.add(d, v.bytes)
		}
		// Output check: the simulator accounted every logical byte.
		res.attempted++
		st, err := c.Stats(ctx)
		switch {
		case err != nil:
			res.fail("pass %d stats: %v", pass, err)
		case st.LogicalBytes != want || st.PhysicalBytes <= 0 || st.PhysicalBytes > want:
			res.fail("pass %d: logical %d physical %d, want logical %d", pass, st.LogicalBytes, st.PhysicalBytes, want)
		}
		res.addClient(sess.Stats())
		peak := rss.roundPeak()
		sess.Close()
		if err := c.Close(); err != nil {
			return nil, err
		}
		ok := res.failed == failed
		backup.endRound(ok)
		if !ok {
			break
		}
		setup = append(setup, setupTime)
		peaks = append(peaks, peak)
		dedups = append(dedups, st.DedupRatio)
		skews = append(skews, st.StorageSkew)
	}
	res.opTime = backup.total
	res.gated = backupMetrics(setup, &backup, dedups, peaks)
	res.extra = append(res.extra, metric{Name: "storage_skew", Value: median(skews), Unit: "ratio",
		Note: fmt.Sprintf("(sigma/mean of node usage, median of %d passes)", len(skews))})
	return res, nil
}
