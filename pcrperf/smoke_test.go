package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeScale gives 96 images in 3 records, so every workload finishes in
// about a second.
const smokeScale = 0.25

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test checks the benchmark against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smokeRun runs one workload in-process and returns its exit code, its
// parsed result line, and its whole output.
func smokeRun(t *testing.T, work, workload string, trace int) (int, result, string) {
	t.Helper()
	var out bytes.Buffer
	code := runMain([]string{
		"--workload", workload, "--seed", "7", "--seconds", "0.3",
		"--trace", fmt.Sprint(trace), "--scale", fmt.Sprint(smokeScale), "--work", work,
	}, &out, io.Discard, buildFixture)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return code, res, out.String()
}

// exercised lists, per workload, the per-layer metrics that must be
// nonzero because the workload drives that layer. (At the smoke scale the
// memory cache holds the whole dataset, so diskcache.hits stays zero.)
var exercised = map[string][]string{
	"": {
		"core.reassemble.samples", "core.reassemble.self_ms", "core.backend.reads",
		"core.backend.bytes", "core.backend.self_ms", "core.open_ms", "pcr.filter.selected",
		"pcr.filter.skipped", "pcr.filter.bytes_read", "pcr.filter.delivered_per_moved",
		"runtime.alloc_bytes", "runtime.gc_cycles", "run.wait_p90_ms", "run.wait_p99_ms",
		"host.calib_img_per_s", "trace.spans",
	},
	"loader-local": {
		"pcr.loader.batches", "pcr.loader.stall_ms", "pcr.loader.assembly_ms",
		"jpegc.decode.images", "jpegc.decode.self_ms", "jpegc.decode.us_per_img_q1",
		"jpegc.decode.us_per_img_q5", "jpegc.decode.us_per_img_q10",
		"jpegc.decode.alloc_bytes_per_img", "pcr.filter.bytes_avoided",
	},
	"remote-read": {
		"serve.client.reads", "serve.client.read.self_ms", "serve.server.requests",
		"serve.server.bytes_served", "serve.server.pushdown_requests",
		"serve.server.pushdown_bytes_saved", "serve.server.handler.self_ms",
		"serve.server.handler.p99_us", "pcr.filter.bytes_avoided",
	},
	"cache-upgrade": {
		"cache.hits", "cache.upgrade_hits", "cache.misses", "cache.hit_ratio",
		"cache.bytes_fetched", "cache.get.self_ms", "cache.cold_img_per_s",
		"diskcache.delta_hits", "diskcache.misses", "diskcache.bytes_fetched",
		"diskcache.delta_bytes", "diskcache.read.self_ms", "diskcache.open_ms",
		"serve.client.reads", "serve.client.read.self_ms", "serve.server.requests",
		"serve.server.bytes_served", "serve.server.handler.self_ms",
	},
	"ingest": {
		"jpegc.encode.us_per_img", "jpegc.transcode.us_per_img", "core.writer.records",
		"core.writer.bytes", "core.writer.self_ms", "pcr.filter.bytes_avoided",
	},
}

// TestEveryWorkloadReportsItsMetrics runs each workload of BENCHMARK.json
// untraced and traced at a tiny scale. Every end-to-end metric must be
// reported, with its unit, and be positive; a traced run must report
// every per-layer metric and a nonzero value for each layer the workload
// exercises.
func TestEveryWorkloadReportsItsMetrics(t *testing.T) {
	spec := readSpec(t)
	work := t.TempDir()
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			code, res, out := smokeRun(t, work, w.Name, 0)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: exit %d, result %+v\n%s", code, res, out)
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("untraced run reports %d metrics, BENCHMARK.json has %d end-to-end", len(res.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}

			code, res, out = smokeRun(t, work, w.Name, 1)
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: exit %d, result %+v\n%s", code, res, out)
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json has %d per-layer", len(res.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, name := range append(exercised[""], exercised[w.Name]...) {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("per-layer %s is %v on %s, which exercises that layer", name, res.Metrics[name].Value, w.Name)
				}
			}
			if _, err := os.Stat(spanLogPath(work, w.Name, 7)); err != nil {
				t.Errorf("traced run wrote no span log: %v", err)
			}
		})
	}
}

// TestTruncatedRecordFailsTheRun cuts one record file of the fixture in
// half. Every workload that reads the fixture must count the failed reads,
// report itself incorrect and exit nonzero, instead of stopping silently.
func TestTruncatedRecordFailsTheRun(t *testing.T) {
	work := t.TempDir()
	dir := fixtureDir(work, smokeScale, 7)
	if err := buildFixture(dir, smokeScale, 7); err != nil {
		t.Fatal(err)
	}
	rec := filepath.Join(dir, "record-00001.pcr")
	info, err := os.Stat(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(rec, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"loader-local", "remote-read", "cache-upgrade"} {
		t.Run(w, func(t *testing.T) {
			code, res, out := smokeRun(t, work, w, 0)
			if code == 0 || res.Correct || res.Failed == 0 || res.Attempted < res.Failed {
				t.Fatalf("exit %d, result correct=%v attempted=%d failed=%d; want a nonzero exit and failed operations\n%s",
					code, res.Correct, res.Attempted, res.Failed, out)
			}
			if !strings.Contains(out, "failed_ops_ratio") {
				t.Errorf("output does not report failed_ops_ratio:\n%s", out)
			}
		})
	}
}
