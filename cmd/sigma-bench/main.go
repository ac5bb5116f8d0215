// Command sigma-bench regenerates the tables and figures of the paper's
// evaluation section and runs the prototype's management benchmarks. With
// no arguments it lists the available experiments; "all" runs every paper
// experiment; "recovery" measures the durable stop/restart/restore cycle;
// "gc" measures backup deletion, reference-counting GC and container
// compaction under concurrent ingest; "rebalance", "kill", "tenants" and
// "scaleout" measure elastic membership, R=2 failover and repair,
// multi-tenant scheduling and the bid-summary routing sweep. Ingest and
// restore throughput live in the perfbench harness.
//
// Usage:
//
//	sigma-bench [-scale 1.0] [-quick] [-json] all|fig1|...|table2|ram ...
//	sigma-bench [-json] [-mb 64] [-streams 4] recovery
//	sigma-bench [-json] [-mb 32] [-streams 8] gc
//	sigma-bench [-json] [-mb 32] [-nodes 3] -mode rebalance
//	sigma-bench [-json] [-mb 32] [-nodes 3] -mode kill
//	sigma-bench [-json] [-nodes 2] [-streams 64] -mode tenants
//	sigma-bench [-json] [-scale 1.0] [-nodes N] [-sc KB] [-schemes csv] -mode scaleout
//
// With -json every result is emitted as one JSON object per line
// (machine-readable; suitable for tracking BENCH_*.json trajectories).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"sigmadedupe"
	"sigmadedupe/internal/core"
	"sigmadedupe/internal/experiments"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/node"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sigma-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sigma-bench", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "dataset scale multiplier (smaller = faster)")
	quick := fs.Bool("quick", false, "trim sweeps to a few points")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON, one object per line")
	nodes := fs.Int("nodes", 4, "number of loopback dedup servers (scaleout: one node count)")
	mb := fs.Int("mb", 32, "logical MB backed up per run")
	workloadName := fs.String("workload", "", "scaleout: generational dataset (linux|vm|mail|web; default linux)")
	seed := fs.Int64("seed", 7, "tenants/scaleout: workload generator seed")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the whole run to this file")
	scKB := fs.Int64("sc", 0, "scaleout: one super-chunk size in KB (0 = the full grid)")
	streamsFlag := fs.Int("streams", 8, "recovery/gc/tenants: concurrent backup streams")
	schemes := fs.String("schemes", "", "scaleout: comma-separated routing schemes (default sigma,stateless,stateful,eb)")
	mode := fs.String("mode", "", "run one experiment by name (alias for the positional argument, e.g. -mode kill)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if *mode != "" {
		names = append(names, *mode)
	}
	if len(names) == 0 {
		fmt.Printf("available experiments: %s, recovery, gc, rebalance, kill, tenants, scaleout, all\n", strings.Join(experiments.Names(), ", "))
		return nil
	}
	streamsExplicit, nodesExplicit, scExplicit := false, false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "streams":
			streamsExplicit = true
		case "nodes":
			nodesExplicit = true
		case "sc":
			scExplicit = true
		}
	})
	// The tenants bench is about contention: default to hundreds of
	// concurrent sessions unless -streams was given explicitly.
	tenantSessions := *streamsFlag
	if !streamsExplicit {
		tenantSessions = 240
	}
	if len(names) == 1 && names[0] == "all" {
		names = experiments.Names()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			_ = pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}
	enc := json.NewEncoder(os.Stdout)
	emit := func(rep interface{ print(*os.File) }) error {
		if *jsonOut {
			return enc.Encode(rep)
		}
		rep.print(os.Stdout)
		return nil
	}
	for _, name := range names {
		switch name {
		case "recovery":
			rep, err := runRecovery(*mb, *streamsFlag)
			if err != nil {
				return fmt.Errorf("recovery: %w", err)
			}
			if err := emit(rep); err != nil {
				return err
			}
			continue
		case "gc":
			rep, err := runGC(*mb, *streamsFlag)
			if err != nil {
				return fmt.Errorf("gc: %w", err)
			}
			if err := emit(rep); err != nil {
				return err
			}
			continue
		case "rebalance":
			rep, err := runRebalance(*mb, *nodes)
			if err != nil {
				return fmt.Errorf("rebalance: %w", err)
			}
			if err := emit(rep); err != nil {
				return err
			}
			continue
		case "kill":
			rep, err := runKill(*mb, *nodes)
			if err != nil {
				return fmt.Errorf("kill: %w", err)
			}
			if err := emit(rep); err != nil {
				return err
			}
			continue
		case "tenants":
			rep, err := runTenants(tenantsConfig{
				Nodes:    *nodes,
				Sessions: tenantSessions,
				Seed:     *seed,
			})
			if err != nil {
				return fmt.Errorf("tenants: %w", err)
			}
			if err := emit(rep); err != nil {
				return err
			}
			continue
		case "scaleout":
			// -nodes/-sc narrow the sweep grid to one point each when set
			// explicitly; -schemes narrows the scheme axis.
			cfg := scaleoutConfig{
				Workload: *workloadName,
				Scale:    *scale,
				Seed:     *seed,
			}
			if nodesExplicit {
				cfg.NodeCounts = []int{*nodes}
			}
			if scExplicit && *scKB > 0 {
				cfg.SCKBs = []int64{*scKB}
			}
			if *schemes != "" {
				cfg.Schemes = strings.Split(*schemes, ",")
			}
			rep, err := runScaleout(cfg)
			if err != nil {
				return fmt.Errorf("scaleout: %w", err)
			}
			if err := emit(rep); err != nil {
				return err
			}
			continue
		}
		start := time.Now()
		tab, err := experiments.Run(name, experiments.Options{Scale: *scale, Quick: *quick})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		elapsed := time.Since(start)
		if *jsonOut {
			err = enc.Encode(tableReport{
				Experiment: tab.Name,
				Title:      tab.Title,
				Headers:    tab.Headers,
				Rows:       tab.Rows,
				Notes:      tab.Notes,
				ElapsedMS:  elapsed.Milliseconds(),
			})
			if err != nil {
				return err
			}
		} else {
			tab.Fprint(os.Stdout)
			fmt.Printf("  [%s completed in %v]\n\n", name, elapsed.Round(time.Millisecond))
		}
	}
	return nil
}

// tableReport is the JSON shape of one paper experiment.
type tableReport struct {
	Experiment string     `json:"experiment"`
	Title      string     `json:"title"`
	Headers    []string   `json:"headers"`
	Rows       [][]string `json:"rows"`
	Notes      []string   `json:"notes,omitempty"`
	ElapsedMS  int64      `json:"elapsed_ms"`
}

// recoveryReport records one durable ingest → shutdown → recover cycle.
type recoveryReport struct {
	Experiment     string  `json:"experiment"`
	DataMB         int     `json:"data_mb"`
	Streams        int     `json:"streams"`
	IngestSeconds  float64 `json:"ingest_seconds"`
	Containers     int     `json:"containers"`
	UniqueChunks   int64   `json:"unique_chunks"`
	PhysicalMB     float64 `json:"physical_mb"`
	RecoverSeconds float64 `json:"recover_seconds"`
	RecoverMBps    float64 `json:"recover_mb_s"`
	VerifiedChunks int     `json:"verified_chunks"`
}

func (r *recoveryReport) print(w *os.File) {
	fmt.Fprintf(w, "== recovery: durable node, %d MB over %d streams\n", r.DataMB, r.Streams)
	fmt.Fprintf(w, "  ingest: %.3fs  sealed containers: %d  unique chunks: %d  physical: %.1f MB\n",
		r.IngestSeconds, r.Containers, r.UniqueChunks, r.PhysicalMB)
	fmt.Fprintf(w, "  recover: %.3fs (%.1f MB/s), %d chunks restore-verified byte-identical\n\n",
		r.RecoverSeconds, r.RecoverMBps, r.VerifiedChunks)
}

// gcReport records one delete → compact-under-ingest → verify cycle.
type gcReport struct {
	Experiment     string `json:"experiment"`
	DataMB         int    `json:"data_mb"`
	Streams        int    `json:"streams"`
	Backups        int    `json:"backups"`
	DeletedBackups int    `json:"deleted_backups"`
	// Space accounting (bytes of container files on disk).
	DiskBytesBefore      int64 `json:"disk_bytes_before"`
	DiskBytesAfter       int64 `json:"disk_bytes_after"`
	DeadShareBytes       int64 `json:"dead_share_bytes"`
	ReclaimedBytes       int64 `json:"reclaimed_bytes"`
	RetiredOldContainers int64 `json:"retired_containers"`
	// Ingest throughput, same workload shape, without and with the
	// compactor running concurrently.
	IngestMBps           float64 `json:"ingest_mb_s"`
	IngestMBpsCompacting float64 `json:"ingest_mb_s_compacting"`
	CompactSeconds       float64 `json:"compact_seconds"`
	VerifiedChunks       int     `json:"verified_chunks"`
}

func (r *gcReport) print(w *os.File) {
	fmt.Fprintf(w, "== gc: durable node, %d MB over %d backups, %d deleted\n",
		r.DataMB, r.Backups, r.DeletedBackups)
	fmt.Fprintf(w, "  disk: %.1f MB -> %.1f MB  (dead share %.1f MB, reclaimed %.1f MB, %d containers retired)\n",
		float64(r.DiskBytesBefore)/(1<<20), float64(r.DiskBytesAfter)/(1<<20),
		float64(r.DeadShareBytes)/(1<<20), float64(r.ReclaimedBytes)/(1<<20), r.RetiredOldContainers)
	fmt.Fprintf(w, "  ingest: %.1f MB/s alone, %.1f MB/s with compactor running (compaction %.3fs)\n",
		r.IngestMBps, r.IngestMBpsCompacting, r.CompactSeconds)
	fmt.Fprintf(w, "  %d surviving chunks restore-verified byte-identical\n\n", r.VerifiedChunks)
}

// gcDiskBytes sums the sizes of the container files under dir.
func gcDiskBytes(dir string) (int64, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "container-*.bin"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// runGC measures the deletion/compaction subsystem end to end on a
// durable node: `streams` backups of unique payload data are stored
// (each on its own stream), half are deleted (recipe-driven decrefs),
// and compaction reclaims their containers while a second ingest
// generation runs concurrently. Reports on-disk space before/after,
// ingest throughput with and without the concurrent compactor, and
// restore-verifies sampled surviving chunks.
func runGC(mb, streams int) (*gcReport, error) {
	if mb <= 0 {
		mb = 32
	}
	if streams <= 0 {
		streams = 4
	}
	backups := 2 * streams // half will be deleted
	dir, err := os.MkdirTemp("", "sigma-bench-gc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	nd, err := node.New(node.Config{Dir: dir, KeepPayloads: true})
	if err != nil {
		return nil, err
	}
	defer nd.Close()

	const chunkSize = 8 << 10
	const scChunks = 128
	perBackup := mb << 20 / backups / (scChunks * chunkSize)
	if perBackup == 0 {
		perBackup = 1
	}
	type sample struct {
		fp   fingerprint.Fingerprint
		data []byte
	}
	type recipe struct {
		fps []fingerprint.Fingerprint
		ns  []int64
	}

	// ingestGen stores one generation of `backups` backups concurrently
	// (streams at a time), returning per-backup recipes, per-backup
	// payload samples (one per super-chunk), and the measured throughput.
	ingestGen := func(gen int) ([]recipe, [][]sample, float64, error) {
		recipes := make([]recipe, backups)
		samples := make([][]sample, backups)
		var wg sync.WaitGroup
		errs := make(chan error, backups)
		start := time.Now()
		sem := make(chan struct{}, streams)
		for b := 0; b < backups; b++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				rng := rand.New(rand.NewSource(int64(1000*gen + b)))
				stream := fmt.Sprintf("gen%d-backup%d", gen, b)
				var fps []fingerprint.Fingerprint
				var ns []int64
				for i := 0; i < perBackup; i++ {
					sc := &core.SuperChunk{}
					for j := 0; j < scChunks; j++ {
						data := make([]byte, chunkSize)
						rng.Read(data)
						fp := fingerprint.Sum(data)
						sc.Chunks = append(sc.Chunks, core.ChunkRef{FP: fp, Size: chunkSize, Data: data})
						fps = append(fps, fp)
						ns = append(ns, 1)
					}
					if _, err := nd.StoreSuperChunk(stream, sc); err != nil {
						errs <- err
						return
					}
					samples[b] = append(samples[b], sample{sc.Chunks[0].FP, sc.Chunks[0].Data})
				}
				recipes[b] = recipe{fps: fps, ns: ns}
			}(b)
		}
		wg.Wait()
		select {
		case err := <-errs:
			return nil, nil, 0, err
		default:
		}
		if err := nd.Flush(); err != nil {
			return nil, nil, 0, err
		}
		elapsed := time.Since(start).Seconds()
		logical := float64(backups*perBackup*scChunks*chunkSize) / (1 << 20)
		return recipes, samples, logical / elapsed, nil
	}

	// Generation 1: baseline ingest throughput, then delete half.
	recipes, samples1, mbpsAlone, err := ingestGen(1)
	if err != nil {
		return nil, err
	}
	diskBefore, err := gcDiskBytes(dir)
	if err != nil {
		return nil, err
	}
	var deadShare int64
	for b := 0; b < backups/2; b++ {
		if err := nd.DecRef(recipes[b].fps, recipes[b].ns); err != nil {
			return nil, err
		}
		deadShare += int64(len(recipes[b].fps) * chunkSize)
	}
	// Surviving samples: generation-1 super-chunks of the kept backups.
	var surviving []sample
	for b := backups / 2; b < backups; b++ {
		surviving = append(surviving, samples1[b]...)
	}

	// Generation 2 ingests while the compactor runs concurrently.
	stopCompact := make(chan struct{})
	var compactWG sync.WaitGroup
	var compactSeconds float64
	compactWG.Add(1)
	go func() {
		defer compactWG.Done()
		start := time.Now()
		for {
			select {
			case <-stopCompact:
				compactSeconds = time.Since(start).Seconds()
				return
			default:
			}
			if _, err := nd.Compact(context.Background(), 0.95); err != nil {
				compactSeconds = time.Since(start).Seconds()
				return
			}
		}
	}()
	_, samples2, mbpsCompacting, err := ingestGen(2)
	if err != nil {
		return nil, err
	}
	close(stopCompact)
	compactWG.Wait()
	// Final sweep for anything that died after the last concurrent scan.
	if _, err := nd.Compact(context.Background(), 0.95); err != nil {
		return nil, err
	}
	diskAfter, err := gcDiskBytes(dir)
	if err != nil {
		return nil, err
	}

	// Verify every surviving sampled chunk restores byte-identically.
	for _, per := range samples2 {
		surviving = append(surviving, per...)
	}
	verified := 0
	for _, s := range surviving {
		got, err := nd.ReadChunk(s.fp)
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		if !bytes.Equal(got, s.data) {
			return nil, fmt.Errorf("verify: chunk %s corrupted across delete+compact", s.fp.Short())
		}
		verified++
	}
	gcStats := nd.GCStats()
	return &gcReport{
		Experiment:           "gc",
		DataMB:               mb,
		Streams:              streams,
		Backups:              backups,
		DeletedBackups:       backups / 2,
		DiskBytesBefore:      diskBefore,
		DiskBytesAfter:       diskAfter,
		DeadShareBytes:       deadShare,
		ReclaimedBytes:       gcStats.ReclaimedBytes,
		RetiredOldContainers: gcStats.RetiredContainers,
		IngestMBps:           mbpsAlone,
		IngestMBpsCompacting: mbpsCompacting,
		CompactSeconds:       compactSeconds,
		VerifiedChunks:       verified,
	}, nil
}

// runRecovery ingests payload-carrying data into a disk-backed node from
// several concurrent streams, shuts the node down, re-opens it from its
// directory via manifest replay, and verifies sampled chunks restore
// byte-identically from the recovered chunk index and containers.
func runRecovery(mb, streams int) (*recoveryReport, error) {
	if mb <= 0 {
		mb = 64
	}
	if streams <= 0 {
		streams = 4
	}
	dir, err := os.MkdirTemp("", "sigma-bench-recovery-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg := node.Config{Dir: dir, KeepPayloads: true}
	nd, err := node.New(cfg)
	if err != nil {
		return nil, err
	}

	const chunkSize = 8 << 10
	const scChunks = 128
	perStream := mb << 20 / streams / (scChunks * chunkSize)
	if perStream == 0 {
		perStream = 1
	}
	type sample struct {
		fp   fingerprint.Fingerprint
		data []byte
	}
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	errs := make(chan error, streams)
	start := time.Now()
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(31 + s)))
			stream := fmt.Sprintf("stream%d", s)
			for i := 0; i < perStream; i++ {
				sc := &core.SuperChunk{}
				for j := 0; j < scChunks; j++ {
					data := make([]byte, chunkSize)
					rng.Read(data)
					sc.Chunks = append(sc.Chunks, core.ChunkRef{
						FP: fingerprint.Sum(data), Size: chunkSize, Data: data,
					})
				}
				if _, err := nd.StoreSuperChunk(stream, sc); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				samples = append(samples, sample{sc.Chunks[0].FP, sc.Chunks[0].Data})
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	if err := nd.Close(); err != nil {
		return nil, err
	}
	ingest := time.Since(start).Seconds()
	st := nd.Stats()

	rcfg := cfg
	rcfg.Recover = true
	start = time.Now()
	rec, err := node.New(rcfg)
	if err != nil {
		return nil, err
	}
	recover := time.Since(start).Seconds()
	defer rec.Close()

	for _, s := range samples {
		got, err := rec.ReadChunk(s.fp)
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		if !bytes.Equal(got, s.data) {
			return nil, fmt.Errorf("verify: chunk %s corrupted across recovery", s.fp.Short())
		}
	}

	physicalMB := float64(st.PhysicalBytes) / (1 << 20)
	rep := &recoveryReport{
		Experiment:     "recovery",
		DataMB:         mb,
		Streams:        streams,
		IngestSeconds:  ingest,
		Containers:     rec.Manager().NumSealed(),
		UniqueChunks:   st.UniqueChunks,
		PhysicalMB:     physicalMB,
		RecoverSeconds: recover,
		VerifiedChunks: len(samples),
	}
	if recover > 0 {
		rep.RecoverMBps = physicalMB / recover
	}
	return rep, nil
}

// streamSource yields exactly n pseudo-random bytes — a stream, not a
// buffer: the bench proves the session never materializes it. Content is
// a fixed random template with a counter stamped into every 4KB block,
// so every chunk is unique (the heaviest dedup path) while the source
// itself runs at memcpy speed and stays out of the measured hot path.
type streamSource struct {
	rng      *rand.Rand
	left     int
	template []byte
	off      int    // position within the current template pass
	ctr      uint64 // per-4KB-block uniqueness counter
}

const streamTemplateSize = 256 << 10

func (s *streamSource) Read(p []byte) (int, error) {
	if s.left <= 0 {
		return 0, io.EOF
	}
	if s.template == nil {
		s.template = make([]byte, streamTemplateSize)
		s.rng.Read(s.template)
	}
	if len(p) > s.left {
		p = p[:s.left]
	}
	if s.off >= len(s.template) {
		s.off = 0
	}
	n := copy(p, s.template[s.off:])
	// Stamp the counter at each 4KB boundary crossed by this read; the
	// stream position is tracked via off so stamps stay block-aligned.
	for b := s.off &^ 4095; b < s.off+n; b += 4096 {
		if b >= s.off {
			s.ctr++
			for i, shift := 0, 0; i < 8 && b+i < s.off+n; i, shift = i+1, shift+8 {
				p[b-s.off+i] = byte(s.ctr >> shift)
			}
		}
	}
	s.off += n
	s.left -= n
	return n, nil
}

// rebalanceReport records one elastic-cluster cycle: ingest a
// generation, AddNode, then rebalance onto the new node while a second
// generation ingests concurrently. The acceptance criterion is
// IngestRatio: ingest throughput during the concurrent migration stays
// a healthy fraction of idle throughput.
type rebalanceReport struct {
	Experiment string `json:"experiment"`
	Nodes      int    `json:"nodes"`
	DataMB     int    `json:"data_mb"`
	// Migration volume and speed (Rebalance wall clock).
	BackupsMoved     int     `json:"backups_moved"`
	SuperChunksMoved int     `json:"super_chunks_moved"`
	BytesMigrated    int64   `json:"bytes_migrated"`
	MigrationSeconds float64 `json:"migration_seconds"`
	MigrationMBps    float64 `json:"migration_mb_s"`
	// Ingest throughput, same workload shape, without and with the
	// migration running concurrently.
	IngestMBpsIdle      float64 `json:"ingest_mb_s_idle"`
	IngestMBpsMigrating float64 `json:"ingest_mb_s_migrating"`
	IngestRatio         float64 `json:"ingest_ratio_migrating_vs_idle"`
	// NewNodeMB is the physical data the joined node holds afterwards.
	NewNodeMB float64 `json:"new_node_mb"`
}

func (r *rebalanceReport) print(w *os.File) {
	fmt.Fprintf(w, "== rebalance: %d+1 nodes, %d MB per generation\n", r.Nodes, r.DataMB)
	fmt.Fprintf(w, "  migrated: %d backups, %d super-chunks, %.1f MB in %.3fs (%.1f MB/s)\n",
		r.BackupsMoved, r.SuperChunksMoved, float64(r.BytesMigrated)/(1<<20),
		r.MigrationSeconds, r.MigrationMBps)
	fmt.Fprintf(w, "  ingest: %.1f MB/s idle, %.1f MB/s while migrating (ratio %.2f)\n",
		r.IngestMBpsIdle, r.IngestMBpsMigrating, r.IngestRatio)
	fmt.Fprintf(w, "  new node holds %.1f MB after rebalance\n\n", r.NewNodeMB)
}

// runRebalance measures the elastic-membership path end to end on the
// TCP prototype: `nNodes` loopback servers ingest one generation, a
// fresh server joins (AddNode), and Rebalance migrates existing
// super-chunks onto it while a second generation ingests concurrently.
func runRebalance(mb, nNodes int) (*rebalanceReport, error) {
	if mb <= 0 {
		mb = 32
	}
	if nNodes <= 0 {
		nNodes = 3
	}
	ctx := context.Background()
	addrs := make([]string, nNodes)
	for i := range addrs {
		srv, err := sigmadedupe.StartServer(sigmadedupe.ServerConfig{ID: i})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	be, err := sigmadedupe.NewRemote(ctx, sigmadedupe.RemoteConfig{
		Name:           "rebalance-bench",
		Director:       sigmadedupe.NewDirector(),
		Nodes:          addrs,
		SuperChunkSize: 256 << 10,
	})
	if err != nil {
		return nil, err
	}
	defer be.Close()

	const files = 4
	ingestGen := func(gen int) (float64, error) {
		sess, err := be.NewSession(ctx, sigmadedupe.WithSessionName(fmt.Sprintf("gen%d", gen)))
		if err != nil {
			return 0, err
		}
		defer sess.Close()
		perFile := mb << 20 / files
		start := time.Now()
		for f := 0; f < files; f++ {
			src := &streamSource{rng: rand.New(rand.NewSource(int64(100*gen + f))), left: perFile}
			if err := sess.Backup(ctx, fmt.Sprintf("/gen%d/file%d", gen, f), src); err != nil {
				return 0, err
			}
		}
		if err := sess.Flush(ctx); err != nil {
			return 0, err
		}
		return float64(files*perFile) / (1 << 20) / time.Since(start).Seconds(), nil
	}

	// Generation 1: idle ingest baseline.
	idleMBps, err := ingestGen(1)
	if err != nil {
		return nil, err
	}

	// A fresh node joins.
	joiner, err := sigmadedupe.StartServer(sigmadedupe.ServerConfig{ID: nNodes})
	if err != nil {
		return nil, err
	}
	defer joiner.Close()
	if _, err := be.AddNode(ctx, joiner.Addr()); err != nil {
		return nil, err
	}

	// Rebalance onto it while generation 2 ingests concurrently.
	type migOutcome struct {
		res     sigmadedupe.MigrationResult
		seconds float64
		err     error
	}
	migDone := make(chan migOutcome, 1)
	go func() {
		start := time.Now()
		res, err := be.Rebalance(ctx)
		migDone <- migOutcome{res: res, seconds: time.Since(start).Seconds(), err: err}
	}()
	migratingMBps, err := ingestGen(2)
	if err != nil {
		return nil, err
	}
	mig := <-migDone
	if mig.err != nil {
		return nil, mig.err
	}

	rep := &rebalanceReport{
		Experiment:          "rebalance",
		Nodes:               nNodes,
		DataMB:              mb,
		BackupsMoved:        mig.res.Backups,
		SuperChunksMoved:    mig.res.SuperChunks,
		BytesMigrated:       mig.res.Bytes,
		MigrationSeconds:    mig.seconds,
		IngestMBpsIdle:      idleMBps,
		IngestMBpsMigrating: migratingMBps,
		NewNodeMB:           float64(joiner.StorageUsage()) / (1 << 20),
	}
	if mig.seconds > 0 {
		rep.MigrationMBps = float64(mig.res.Bytes) / (1 << 20) / mig.seconds
	}
	if idleMBps > 0 {
		rep.IngestRatio = migratingMBps / idleMBps
	}
	return rep, nil
}

// killReport records one kill-a-node cycle on a replicated cluster:
// restore throughput healthy, with one node hard-dead (every read of its
// primaries failing over to replicas), and again after anti-entropy
// repair; plus the repair pass itself (promotions, re-replication
// volume, stray references released).
type killReport struct {
	Experiment string `json:"experiment"`
	Nodes      int    `json:"nodes"`
	DataMB     int    `json:"data_mb"`
	// Restore throughput across the three cluster states.
	RestoreMBpsHealthy  float64 `json:"restore_mb_s_healthy"`
	RestoreMBpsDegraded float64 `json:"restore_mb_s_degraded"`
	RestoreMBpsRepaired float64 `json:"restore_mb_s_repaired"`
	DegradedRatio       float64 `json:"restore_ratio_degraded_vs_healthy"`
	// FailoverReads is replica-served chunk reads during the degraded
	// pass.
	FailoverReads int64 `json:"failover_reads"`
	// The repair pass: wall clock, volume re-replicated, and outcome.
	RepairSeconds      float64 `json:"repair_seconds"`
	RepairMBps         float64 `json:"repair_mb_s"`
	PromotedChunks     int64   `json:"promoted_chunks"`
	RereplicatedChunks int64   `json:"rereplicated_chunks"`
	RepairBytes        int64   `json:"repair_bytes"`
	ReleasedRefs       int64   `json:"released_refs"`
}

func (r *killReport) print(w *os.File) {
	fmt.Fprintf(w, "== kill: %d nodes (R=2), %d MB, one node hard-killed\n", r.Nodes, r.DataMB)
	fmt.Fprintf(w, "  restore: %.1f MB/s healthy, %.1f MB/s with one node dead (ratio %.2f, %d failover reads), %.1f MB/s after repair\n",
		r.RestoreMBpsHealthy, r.RestoreMBpsDegraded, r.DegradedRatio, r.FailoverReads, r.RestoreMBpsRepaired)
	fmt.Fprintf(w, "  repair: promoted %d chunks, re-replicated %d (%.1f MB) in %.3fs (%.1f MB/s), released %d stray refs\n\n",
		r.PromotedChunks, r.RereplicatedChunks, float64(r.RepairBytes)/(1<<20),
		r.RepairSeconds, r.RepairMBps, r.ReleasedRefs)
}

// runKill measures node-crash survival end to end on the TCP prototype:
// `nNodes` loopback servers ingest one generation with R=2 replication,
// one server is hard-killed (its process closes, then KillNode drops it
// from the membership with no drain), every backup restores through
// replica failover, and Repair re-establishes R=2.
func runKill(mb, nNodes int) (*killReport, error) {
	if mb <= 0 {
		mb = 32
	}
	if nNodes <= 0 {
		nNodes = 3
	}
	if nNodes < 2 {
		return nil, fmt.Errorf("kill needs at least 2 nodes for R=2")
	}
	ctx := context.Background()
	srvs := make([]*sigmadedupe.Server, nNodes)
	addrs := make([]string, nNodes)
	const victim = 1
	for i := range addrs {
		srv, err := sigmadedupe.StartServer(sigmadedupe.ServerConfig{ID: i})
		if err != nil {
			return nil, err
		}
		if i != victim {
			defer srv.Close()
		}
		srvs[i] = srv
		addrs[i] = srv.Addr()
	}
	be, err := sigmadedupe.NewRemote(ctx, sigmadedupe.RemoteConfig{
		Name:           "kill-bench",
		Director:       sigmadedupe.NewDirector(),
		Nodes:          addrs,
		SuperChunkSize: 256 << 10,
		Replicas:       2,
	})
	if err != nil {
		return nil, err
	}
	defer be.Close()

	const files = 4
	perFile := mb << 20 / files
	names := make([]string, files)
	for f := 0; f < files; f++ {
		names[f] = fmt.Sprintf("/kill/file%d", f)
		src := &streamSource{rng: rand.New(rand.NewSource(int64(900 + f))), left: perFile}
		if err := be.Backup(ctx, names[f], src); err != nil {
			return nil, err
		}
	}
	if err := be.Flush(ctx); err != nil {
		return nil, err
	}

	restorePass := func() (float64, error) {
		start := time.Now()
		for _, name := range names {
			if err := be.Restore(ctx, name, io.Discard); err != nil {
				return 0, fmt.Errorf("restore %s: %w", name, err)
			}
		}
		return float64(files*perFile) / (1 << 20) / time.Since(start).Seconds(), nil
	}

	rep := &killReport{Experiment: "kill", Nodes: nNodes, DataMB: mb}
	if rep.RestoreMBpsHealthy, err = restorePass(); err != nil {
		return nil, err
	}

	// The crash: the victim's server dies, then the membership drops it.
	if err := srvs[victim].Close(); err != nil {
		return nil, err
	}
	if err := be.KillNode(ctx, victim); err != nil {
		return nil, err
	}

	if rep.RestoreMBpsDegraded, err = restorePass(); err != nil {
		return nil, fmt.Errorf("degraded restore: %w", err)
	}
	rep.FailoverReads = be.BackupStats().FailoverReads
	if rep.FailoverReads == 0 {
		return nil, fmt.Errorf("degraded restore hit no replicas; the victim held nothing")
	}
	if rep.RestoreMBpsHealthy > 0 {
		rep.DegradedRatio = rep.RestoreMBpsDegraded / rep.RestoreMBpsHealthy
	}

	start := time.Now()
	res, err := be.Repair(ctx)
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	rep.RepairSeconds = time.Since(start).Seconds()
	rep.PromotedChunks = res.PromotedChunks
	rep.RereplicatedChunks = res.RereplicatedChunks
	rep.RepairBytes = res.Bytes
	rep.ReleasedRefs = res.ReleasedRefs
	if rep.RepairSeconds > 0 {
		rep.RepairMBps = float64(res.Bytes) / (1 << 20) / rep.RepairSeconds
	}

	if rep.RestoreMBpsRepaired, err = restorePass(); err != nil {
		return nil, fmt.Errorf("post-repair restore: %w", err)
	}
	return rep, nil
}
