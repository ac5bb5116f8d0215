// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a given seed and duration, checks every output, and
// prints its metrics: the end-to-end metrics (--trace 0), or the
// per-layer metrics of a traced replay (--trace 1). The last line of
// standard output is one JSON object; the lines before it are the
// human-readable report. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

var workloads = map[string]func(context.Context, runConfig) (*result, error){
	"ingest_unique": runIngestUnique,
	"churn_cycle":   runChurnCycle,
	"sim_tree":      runSimTree,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: ingest_unique, churn_cycle or sim_tree")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer replay")
	out := fs.String("out", ".bench_build/perfbench", "directory for node stores, span dumps and results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[*name]; !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	// Unix socket paths are limited to about a hundred bytes, so node
	// stores live at a path relative to the working directory.
	if filepath.IsAbs(*out) {
		wd, err := os.Getwd()
		if err != nil {
			return err
		}
		if rel, err := filepath.Rel(wd, *out); err == nil {
			*out = rel
		}
	}
	runDir := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))
	if err := os.RemoveAll(runDir); err != nil {
		return err
	}
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		work:     filepath.Join(runDir, "work"),
		sz:       fullSizes,
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)
	h := readHost(cfg.work)

	var rep report
	var err error
	if *trace == 1 {
		rep, err = runTraced(context.Background(), cfg, runDir)
	} else {
		rep, err = runEndToEnd(context.Background(), cfg)
	}
	if err != nil {
		return err
	}
	rep.Host = h
	text := strings.Join(append([]string{h.String()}, rep.lines...), "\n") + "\n"
	fmt.Print(text)
	if err := os.WriteFile(filepath.Join(runDir, "report.txt"), []byte(text), 0o644); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(runDir, "result.json"), blob, 0o644); err != nil {
		return err
	}
	final, err := json.Marshal(rep.final())
	if err != nil {
		return err
	}
	fmt.Println(string(final))
	return nil
}

// report is one run's full record, written to result.json; final() is
// the last line of standard output.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Host      host              `json:"host"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	lines     []string
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r report) final() finalLine {
	return finalLine{r.Failed == 0, r.Attempted, r.Failed, r.Metrics}
}

// byName indexes metrics by name, leaving out any without a value: a
// metric whose every sample failed its check yields no number.
func byName(ms []metric) map[string]metric {
	out := make(map[string]metric, len(ms))
	for _, m := range ms {
		if !math.IsNaN(m.Value) {
			out[m.Name] = m
		}
	}
	return out
}

func runEndToEnd(ctx context.Context, cfg runConfig) (report, error) {
	res, err := workloads[cfg.workload](ctx, cfg)
	if err != nil {
		return report{}, err
	}
	rep := report{
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   byName(res.gated),
		Extra:     byName(res.extra),
		Notes:     res.notes,
	}
	rep.lines = append(rep.lines, fmt.Sprintf("workload %s seed %d: end-to-end", cfg.workload, cfg.seed))
	for _, m := range res.gated {
		rep.lines = append(rep.lines, m.String())
	}
	for _, m := range res.extra {
		rep.lines = append(rep.lines, m.String())
	}
	fail := metric{Name: "op_fail_share", Value: ratio(float64(res.failed), float64(res.attempted)), Unit: "ratio",
		Note: fmt.Sprintf("(%d failed of %d ops and checks)", res.failed, res.attempted)}
	rep.Extra[fail.Name] = fail
	rep.lines = append(rep.lines, fail.String())
	rep.lines = append(rep.lines, res.notes...)
	return rep, nil
}

// host records where a run was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	WorkFS     string `json:"work_fs"`
}

func (h host) String() string {
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s kernel=%s work_fs=%s",
		h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.Kernel, h.WorkFS)
}

func readHost(workDir string) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        "unknown",
		Kernel:     "unknown",
		WorkFS:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(workDir, &st); err == nil {
		h.WorkFS = fsName(int64(st.Type))
	}
	return h
}

func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x01021994:
		return "tmpfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", magic)
}
