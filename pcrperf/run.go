package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/pcr"
)

const (
	// readers is the closed-loop client count of the read workloads; with
	// the loader's decode workers it keeps load within a 2-CPU host.
	readers = 2
	// decodeWorkers is WithPrefetchWorkers for every opened dataset (the
	// library default is 4).
	decodeWorkers = 2
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 25
	// maxProblems bounds the check failures a report lists.
	maxProblems = 20
)

// qualities are the quality levels every workload reports.
var qualities = []int{1, 5, 10}

// phaseFiltered prefixes the filtered passes' phases, one per quality.
const phaseFiltered = "filtered"

func phaseQ(q int) string { return "q" + strconv.Itoa(q) }

func filteredPhase(q int) string { return phaseFiltered + "-" + phaseQ(q) }

func isFiltered(phase string) bool { return strings.HasPrefix(phase, phaseFiltered) }

// qualityPhases names the per-quality phases, whose union is the main
// phase of the read workloads.
func qualityPhases() []string {
	var p []string
	for _, q := range qualities {
		p = append(p, phaseQ(q))
	}
	return p
}

// filteredPhases names the per-quality phases of the filtered passes.
func filteredPhases() []string {
	var p []string
	for _, q := range qualities {
		p = append(p, filteredPhase(q))
	}
	return p
}

// run is one invocation of one workload.
type run struct {
	workload string
	seed     int64
	dur      time.Duration
	scale    float64
	work     string
	stdout   io.Writer
	tr       *tracer // nil on untraced runs
	fx       *fixture

	attempted atomic.Int64
	failed    atomic.Int64

	mu         sync.Mutex
	problems   []string
	suppressed int
	waits      []time.Duration
	// waitThreads is how many goroutines issue the timed operations; it
	// is the same for all of a workload's operations.
	waitThreads int
	waitCount   int

	rounds []*round
	cal    *calibrator
	// filt totals the filtered passes' counters.
	filt  pcr.FilterStats
	e2e   map[string]float64
	layer map[string]float64
}

func newRun(workload string, seed int64, seconds float64, trace bool, scale float64, work string, stdout io.Writer) *run {
	r := &run{
		workload: workload,
		seed:     seed,
		dur:      time.Duration(seconds * float64(time.Second)),
		scale:    scale,
		work:     work,
		stdout:   stdout,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
	}
	if trace {
		r.tr = newTracer()
	}
	return r
}

// problem records a failed output check.
func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else {
		r.suppressed++
	}
}

// op counts one attempted operation and, when err is set, one failure. It
// reports whether the operation succeeded.
func (r *run) op(err error, what string, args ...any) bool {
	r.attempted.Add(1)
	if err == nil {
		return true
	}
	r.failed.Add(1)
	r.problem("%s: %v", fmt.Sprintf(what, args...), err)
	return false
}

// addWaits records how long callers waited for operations that threads
// goroutines issue.
func (r *run) addWaits(ws []time.Duration, threads int) {
	r.mu.Lock()
	r.waits = append(r.waits, ws...)
	r.waitThreads = threads
	r.mu.Unlock()
}

// round is the tally of one pass through a workload's fixed sequence of
// phases. Every round does the same work. Each add is one timed sample of
// its phase: a pass, an epoch, or one record's worth of appends.
type round struct {
	cal       *calibrator
	traced    bool
	delivered int64 // encoded bytes the filtered passes delivered
	threads   map[string]int
	images    map[string]int64
	secs      map[string]float64
	bytes     map[string]int64
	rates     map[string][]float64
}

func newRound(traced bool, cal *calibrator) *round {
	return &round{
		cal:     cal,
		traced:  traced,
		threads: map[string]int{},
		images:  map[string]int64{},
		secs:    map[string]float64{},
		bytes:   map[string]int64{},
		rates:   map[string][]float64{},
	}
}

// add records a sample of a phase that threads goroutines drove: images
// delivered in secs, moving bytes.
func (rd *round) add(phase string, threads int, images int64, secs float64, bytes int64) {
	rd.threads[phase] = threads
	rd.images[phase] += images
	rd.secs[phase] += secs
	rd.bytes[phase] += bytes
	if secs > 0 {
		rd.rates[phase] = append(rd.rates[phase], float64(images)/secs)
	}
	rd.cal.maybe()
}

func (rd *round) timed() float64 {
	var s float64
	for _, v := range rd.secs {
		s += v
	}
	return s
}

// loop runs rounds until the run's duration has passed (at least one round;
// two on a traced run, which alternates untraced and traced rounds to
// measure the tracing overhead). It records allocation over the loop.
func (r *run) loop(body func(i int, rd *round) error) error {
	minRounds := 1
	if r.tr != nil {
		minRounds = 2
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < r.dur; i++ {
		traced := r.tr != nil && i%2 == 1
		if r.tr != nil {
			r.tr.on.Store(traced)
		}
		r.cal.maybe()
		rd := newRound(traced, r.cal)
		err := body(i, rd)
		if r.tr != nil {
			r.tr.on.Store(false)
		}
		if err != nil {
			return err
		}
		r.rounds = append(r.rounds, rd)
	}
	runtime.ReadMemStats(&after)

	var images int64
	for _, rd := range r.rounds {
		for _, n := range rd.images {
			images += n
		}
	}
	if images > 0 {
		r.e2e["alloc_bytes_per_img"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(images)
	}
	r.layer["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	r.layer["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	r.layer["runtime.alloc_bytes"] = float64(after.TotalAlloc - before.TotalAlloc)
	return nil
}

// rate is the median of a phase's sample rates over the run, at the
// calibration reference speed.
func (r *run) rate(phase string) float64 {
	var rates []float64
	threads := 0
	for _, rd := range r.rounds {
		rates = append(rates, rd.rates[phase]...)
		threads = max(threads, rd.threads[phase])
	}
	return median(rates) * r.cal.scale(threads)
}

// combinedRate is the rate of the given phases run back to back with the
// image counts they had in this run, each at its reported rate.
func (r *run) combinedRate(phases ...string) float64 {
	var n, secs float64
	for _, p := range phases {
		var images int64
		for _, rd := range r.rounds {
			images += rd.images[p]
		}
		if rate := r.rate(p); rate > 0 {
			n += float64(images)
			secs += float64(images) / rate
		}
	}
	if secs == 0 {
		return 0
	}
	return n / secs
}

// bytesPerImage is the given phases' bytes moved per delivered image in
// the run's first round. Rounds of the cacheless workloads repeat it
// exactly (the checks say so); on cache-upgrade it is the cold cycle, whose
// delta upgrades are what the caches save.
func (r *run) bytesPerImage(phases ...string) float64 {
	if len(r.rounds) == 0 {
		return 0
	}
	var bytes, images int64
	for _, p := range phases {
		bytes += r.rounds[0].bytes[p]
		images += r.rounds[0].images[p]
	}
	if images == 0 {
		return 0
	}
	return float64(bytes) / float64(images)
}

// finish derives the end-to-end metrics every workload reports from the
// rounds, the waits and the process's peak memory. img_per_s is the rate of
// the main phases together.
func (r *run) finish(mainPhases ...string) {
	// Set-up runs one step at a time, on one goroutine.
	r.e2e["setup_s"] /= r.cal.scale(1)
	r.e2e["img_per_s"] = r.combinedRate(mainPhases...)
	for _, q := range qualities {
		r.e2e["img_per_s_"+phaseQ(q)] = r.rate(phaseQ(q))
		r.e2e["bytes_per_img_"+phaseQ(q)] = r.bytesPerImage(phaseQ(q))
	}
	r.e2e["filtered_img_per_s"] = r.combinedRate(filteredPhases()...)
	r.e2e["filtered_bytes_per_img"] = r.bytesPerImage(filteredPhases()...)

	r.mu.Lock()
	waits := r.waits
	r.mu.Unlock()
	r.waitCount = len(waits)
	waitScale := r.cal.scale(r.waitThreads)
	for n := 1; n <= readers; n++ {
		fmt.Fprintf(r.stdout, "calibration on %d goroutine(s): median %.0f img/s over %d bursts, scale %.4f to %.0f img/s\n",
			n, median(r.cal.rates[n]), len(r.cal.rates[n]), r.cal.scale(n), calibReference[n])
	}
	fmt.Fprintf(r.stdout, "waits issued by %d goroutine(s), divided by %.4f\n", r.waitThreads, waitScale)
	r.layer["host.calib_img_per_s"] = median(r.cal.rates[readers])
	// The tail percentiles are printed and traced but not gated.
	ms := func(p float64) float64 { return windowedPercentile(waits, p).Seconds() * 1e3 / waitScale }
	r.e2e["wait_p50_ms"] = ms(0.50)
	r.layer["run.wait_p90_ms"] = ms(0.90)
	r.layer["run.wait_p99_ms"] = ms(0.99)
	fmt.Fprintf(r.stdout, "wait p90 %.4g ms, p99 %.4g ms over %d waits\n", ms(0.90), ms(0.99), len(waits))
	if len(waits) < 1000 {
		fmt.Fprintf(r.stdout, "note: %d wait samples leave fewer than 10 beyond p99\n", len(waits))
	}

	rss, err := peakRSSMiB()
	if err != nil {
		r.problem("peak RSS: %v", err)
	}
	r.e2e["peak_rss_mb"] = rss

	if r.tr != nil {
		var plain, traced []float64
		for _, rd := range r.rounds {
			if rd.traced {
				traced = append(traced, rd.timed())
			} else {
				plain = append(plain, rd.timed())
			}
		}
		if p := median(plain); p > 0 {
			r.layer["trace.overhead_pct"] = (median(traced) - p) / p * 100
		}
		r.filterLayer()
	}
}

// timeSetup runs setup setupReps times and returns the median duration.
// Every setup but the last is torn down untimed; the last is kept. Before
// each one, reset (when set) restores its input, and the file system's
// pending writes are flushed: set-up is mostly metadata operations, whose
// latency otherwise depends on how much the previous run or set-up left to
// write back.
func timeSetup[T any](reset func() error, setup func() (T, error), teardown func(T)) (T, float64, error) {
	runtime.GC()
	var kept T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if reset != nil {
			if err := reset(); err != nil {
				return kept, 0, err
			}
		}
		syscall.Sync()
		t0 := time.Now()
		v, err := setup()
		d := time.Since(t0).Seconds()
		if err != nil {
			return kept, 0, err
		}
		secs = append(secs, d)
		if i < setupReps-1 {
			teardown(v)
		} else {
			kept = v
		}
	}
	return kept, median(secs), nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// waitWindow is the number of consecutive waits one percentile is taken
// over: a p99 then has ten samples beyond it.
const waitWindow = 1000

// windowedPercentile is the median, over consecutive windows of waitWindow
// waits in the order they were recorded, of each window's p-quantile. A
// neighbour's burst then spoils one window instead of the run's tail. A
// shorter remainder joins the last window; fewer than two windows' worth
// gives the plain percentile.
func windowedPercentile(waits []time.Duration, p float64) time.Duration {
	var per []float64
	for start := 0; start < len(waits); start += waitWindow {
		end := start + waitWindow
		if len(waits)-end < waitWindow {
			end = len(waits)
		}
		w := slices.Clone(waits[start:end])
		slices.Sort(w)
		per = append(per, float64(percentile(w, p)))
		if end == len(waits) {
			break
		}
	}
	return time.Duration(median(per))
}

// percentile returns the nearest-rank p-quantile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
