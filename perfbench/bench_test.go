package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinySizes runs every workload in a second or two.
func tinySizes() sizes {
	return sizes{
		nodes:             2,
		ingestOpMB:        1,
		ingestOpsPerRound: 2,
		churnImageMB:      2,
		churnCacheBytes:   256 << 10,
		churnRetention:    2,
		churnCompactEvery: 2,
		churnCycles:       4,
		simNodes:          8,
		simScale:          0.05,
		simBatchBytes:     1 << 20,
		minOps:            map[string]int{"ingest_unique": 3, "churn_cycle": 3, "sim_tree": 1},
	}
}

func tinyConfig(t *testing.T, workload string) runConfig {
	return runConfig{workload: workload, seed: 7, work: t.TempDir(), sz: tinySizes()}
}

// benchmarkFile is the part of BENCHMARK.json the program must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// wantExtra lists the end-to-end metrics only some workloads have.
var wantExtra = map[string][]string{
	"ingest_unique": {"disk_bytes_per_live_byte", "op_fail_share"},
	"churn_cycle":   {"restore_mb_s", "restore_ms_p50", "restore_ms_tail", "disk_bytes_per_live_byte", "op_fail_share"},
	"sim_tree":      {"storage_skew", "op_fail_share"},
}

func checkPrinted(t *testing.T, rep report, name, unit string) {
	t.Helper()
	for _, line := range rep.lines {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return
		}
	}
	t.Errorf("%s: %s [%s] not printed", rep.Workload, name, unit)
}

func TestEndToEndPrintsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := runEndToEnd(context.Background(), tinyConfig(t, w.Name))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", rep.Failed, rep.Attempted, rep.Notes)
			}
			if len(rep.Metrics) != len(bf.EndToEnd) {
				t.Errorf("got %d end-to-end metrics, BENCHMARK.json has %d", len(rep.Metrics), len(bf.EndToEnd))
			}
			for _, m := range bf.EndToEnd {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
				checkPrinted(t, rep, m.Name, m.Unit)
			}
			for _, name := range wantExtra[w.Name] {
				m, ok := rep.Extra[name]
				if !ok {
					t.Errorf("metric %s missing", name)
					continue
				}
				checkPrinted(t, rep, name, m.Unit)
			}
			if rep.Metrics["dedup_ratio"].Value <= 0 {
				t.Errorf("dedup ratio %v", rep.Metrics["dedup_ratio"].Value)
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := tinyConfig(t, w.Name)
			cfg.seconds = 0.1
			runDir := t.TempDir()
			rep, err := runTraced(context.Background(), cfg, runDir)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 {
				t.Fatalf("%d of %d ops failed: %v", rep.Failed, rep.Attempted, rep.Notes)
			}
			if len(rep.Metrics) != len(bf.PerLayer) {
				t.Errorf("got %d per-layer metrics, BENCHMARK.json has %d", len(rep.Metrics), len(bf.PerLayer))
			}
			for _, m := range bf.PerLayer {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			if rep.Metrics["fingerprint.sum.calls"].Value == 0 {
				t.Error("no fingerprint.sum spans recorded")
			}
			if _, err := os.Stat(filepath.Join(runDir, "spans.jsonl.gz")); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSabotagedImageFailsOps(t *testing.T) {
	cfg := tinyConfig(t, "churn_cycle")
	cfg.sabotage = true
	rep, err := runEndToEnd(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Fatal("a restore compared against a corrupted image did not fail")
	}
	final := rep.final()
	if final.Correct {
		t.Error("run with failed checks reported correct")
	}
	if _, ok := rep.Extra["restore_ms_p50"]; ok {
		t.Error("failed restores still yielded a restore latency")
	}
	if _, ok := rep.Metrics["backup_mb_s"]; ok {
		t.Error("a round with failed checks still yielded backup samples")
	}
	if _, err := json.Marshal(final); err != nil {
		t.Error(err)
	}
}
