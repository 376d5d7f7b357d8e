// Command pcrperf is the repository's benchmark of the PCR read and write
// paths. It runs one named workload over a seeded synthetic dataset for a
// fixed time, checks every output it gets, and prints each metric by name
// and unit, then one JSON result line:
//
//	go run . --workload loader-local --seed 1 --seconds 10 --trace 0
//
// run from the repository root (see run.sh, which also keeps the Go build
// cache inside the checkout). README.md lists the workloads, the metrics,
// and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
// README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"img_per_s", "1/s"},
	{"img_per_s_q1", "1/s"},
	{"img_per_s_q5", "1/s"},
	{"img_per_s_q10", "1/s"},
	{"bytes_per_img_q1", "B"},
	{"bytes_per_img_q5", "B"},
	{"bytes_per_img_q10", "B"},
	{"filtered_img_per_s", "1/s"},
	{"filtered_bytes_per_img", "B"},
	{"wait_p50_ms", "ms"},
	{"alloc_bytes_per_img", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports. A layer a workload does
// not exercise reports zero.
var perLayer = []metricDef{
	{"pcr.loader.batches", "count"},
	{"pcr.loader.stall_ms", "ms"},
	{"pcr.loader.assembly_ms", "ms"},
	{"jpegc.decode.images", "count"},
	{"jpegc.decode.self_ms", "ms"},
	{"jpegc.decode.us_per_img_q1", "us"},
	{"jpegc.decode.us_per_img_q5", "us"},
	{"jpegc.decode.us_per_img_q10", "us"},
	{"jpegc.decode.alloc_bytes_per_img", "B"},
	{"core.reassemble.samples", "count"},
	{"core.reassemble.self_ms", "ms"},
	{"core.backend.reads", "count"},
	{"core.backend.bytes", "B"},
	{"core.backend.self_ms", "ms"},
	{"core.backend.failed", "count"},
	{"serve.client.reads", "count"},
	{"serve.client.read.self_ms", "ms"},
	{"serve.client.hedges", "count"},
	{"serve.client.failovers", "count"},
	{"serve.client.refreshes", "count"},
	{"serve.server.requests", "count"},
	{"serve.server.errors", "count"},
	{"serve.server.bytes_served", "B"},
	{"serve.server.bytes_read", "B"},
	{"serve.server.pushdown_requests", "count"},
	{"serve.server.pushdown_bytes_saved", "B"},
	{"serve.server.handler.self_ms", "ms"},
	{"serve.server.handler.p99_us", "us"},
	{"pcr.filter.selected", "count"},
	{"pcr.filter.skipped", "count"},
	{"pcr.filter.records_skipped", "count"},
	{"pcr.filter.bytes_read", "B"},
	{"pcr.filter.bytes_avoided", "B"},
	{"pcr.filter.delivered_per_moved", "ratio"},
	{"cache.hits", "count"},
	{"cache.upgrade_hits", "count"},
	{"cache.misses", "count"},
	{"cache.evictions", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.bytes_fetched", "B"},
	{"cache.get.self_ms", "ms"},
	{"cache.cold_img_per_s", "1/s"},
	{"diskcache.hits", "count"},
	{"diskcache.delta_hits", "count"},
	{"diskcache.misses", "count"},
	{"diskcache.bytes_fetched", "B"},
	{"diskcache.delta_bytes", "B"},
	{"diskcache.evictions", "count"},
	{"diskcache.read.self_ms", "ms"},
	{"diskcache.open_ms", "ms"},
	{"jpegc.encode.us_per_img", "us"},
	{"jpegc.transcode.us_per_img", "us"},
	{"core.writer.records", "count"},
	{"core.writer.bytes", "B"},
	{"core.writer.self_ms", "ms"},
	{"core.open_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_bytes", "B"},
	{"run.wait_p90_ms", "ms"},
	{"run.wait_p99_ms", "ms"},
	{"host.calib_img_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// workloads maps each workload's name to its function (workloads.go).
var workloads = map[string]func(*run) error{
	"loader-local":  (*run).loaderLocal,
	"remote-read":   (*run).remoteRead,
	"cache-upgrade": (*run).cacheUpgrade,
	"ingest":        (*run).ingest,
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// watchdog ends a run that would overrun the 180 s a run may take.
const watchdog = 170 * time.Second

func main() {
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "pcrperf: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	code := runMain(os.Args[1:], os.Stdout, os.Stderr, buildInChild)
	timer.Stop()
	os.Exit(code)
}

// fixtureBuilder writes the seeded dataset at dir.
type fixtureBuilder func(dir string, scale float64, seed int64) error

// buildInChild builds a fixture in a child process of this binary, so
// generating it leaves nothing in this process's heap or peak RSS.
func buildInChild(dir string, scale float64, seed int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "--build-fixture", dir, "--scale", fmt.Sprint(scale), "--seed", fmt.Sprint(seed))
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

// runMain parses args, runs one workload and prints its report. It returns
// the process exit code: 0 only when every operation succeeded and every
// output check passed.
func runMain(args []string, stdout, stderr io.Writer, build fixtureBuilder) int {
	fs := flag.NewFlagSet("pcrperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: loader-local, remote-read, cache-upgrade or ingest")
	seed := fs.Int64("seed", 1, "seed of the dataset, the loader shuffle and the filter label set")
	seconds := fs.Float64("seconds", 10, "how long the timed loop runs")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	scale := fs.Float64("scale", 8, "synthetic cars profile scale (8 gives 2458 images)")
	work := fs.String("work", filepath.Join(".bench_build", "pcrperf"), "directory for fixtures, scratch datasets and span logs")
	fixtureDir := fs.String("build-fixture", "", "only build the fixture at this directory (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fixtureDir != "" {
		if err := buildFixture(*fixtureDir, *scale, *seed); err != nil {
			fmt.Fprintln(stderr, "pcrperf:", err)
			return 1
		}
		return 0
	}
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "pcrperf: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "pcrperf: --seconds and --scale must be positive and --trace 0 or 1")
		return 2
	}

	r := newRun(*workload, *seed, *seconds, *trace == 1, *scale, *work, stdout)
	err := r.setupFixture(build)
	if err == nil {
		r.cal, err = newCalibrator()
	}
	if err == nil {
		err = drive(r)
	}
	if err == nil && r.tr != nil {
		r.layer["trace.spans"] = float64(r.tr.nextID.Load())
		err = r.tr.writeLog(spanLogPath(r.work, r.workload, r.seed))
	}
	if err != nil {
		r.problem("%v", err)
	}
	if r.fx != nil {
		if err := os.RemoveAll(r.fx.dir); err != nil {
			r.problem("removing the run's fixture copy: %v", err)
		}
	}
	return r.report()
}

// report prints the run's metrics, one per line, then the JSON result.
func (r *run) report() int {
	defs := endToEnd
	vals := r.e2e
	if r.tr != nil {
		defs = perLayer
		vals = r.layer
	}
	res := result{
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && r.tr == nil && len(r.problems) == 0 {
			r.problem("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(r.stdout, "%-36s %14.6g %s\n", d.name, v, d.unit)
	}
	ratio := 0.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(r.stdout, "operations: attempted %d failed %d failed_ops_ratio %.6g\n", res.Attempted, res.Failed, ratio)
	fmt.Fprintf(r.stdout, "wait samples: %d\n", r.waitCount)
	for _, p := range r.problems {
		fmt.Fprintln(r.stdout, "check failed:", p)
	}
	if r.suppressed > 0 {
		fmt.Fprintf(r.stdout, "check failed: %d more problems not shown\n", r.suppressed)
	}
	if res.Attempted == 0 {
		// Nothing ran, so there is no result to report.
		fmt.Fprintln(r.stdout, "check failed: no operation was attempted")
		return 1
	}
	res.Correct = len(r.problems) == 0 && res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(r.stdout, "check failed:", err)
		return 1
	}
	fmt.Fprintln(r.stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
