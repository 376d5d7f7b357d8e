package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/pcr"
)

const (
	// memCacheBytes sits between the q5 (1.97 MB) and q10 (4.27 MB)
	// working sets of the scale-8 fixture, so q10 evicts and q5 mostly fits.
	memCacheBytes = 2 << 20
	// diskCacheBytes holds the whole dataset.
	diskCacheBytes = 64 << 20
	// readBackPasses and filteredReadBackPasses are how many read-back
	// passes, and filtered ones, an ingest round makes per quality. An
	// ingest round lasts seconds and one pass milliseconds, so a round
	// reads back many times to give each phase enough samples.
	readBackPasses         = 20
	filteredReadBackPasses = 5
)

// cycle is cache-upgrade's quality sequence: up through the delta
// upgrades, then back down through warm caches.
var cycle = []int{1, 5, 10, 5, 1}

// ---- loader-local ----

// loaderLocal trains through pcr.Loader over a local dataset: one epoch
// per quality per round, then one filtered epoch per quality.
func (r *run) loaderLocal() error {
	type env struct {
		ds       *pcr.Dataset
		loaders  map[int]*pcr.Loader
		filtered map[int]*pcr.Loader
	}
	setup := func() (*env, error) {
		ds, err := pcr.Open(r.fx.dir, pcr.WithPrefetchWorkers(decodeWorkers))
		if err != nil {
			return nil, err
		}
		e := &env{ds: ds, loaders: map[int]*pcr.Loader{}, filtered: map[int]*pcr.Loader{}}
		for _, q := range qualities {
			opts := []pcr.LoaderOption{pcr.WithBatchSize(32), pcr.WithQuality(q), pcr.WithLoaderSeed(r.seed)}
			if e.loaders[q], err = pcr.NewLoader(ds, opts...); err != nil {
				ds.Close()
				return nil, err
			}
			if e.filtered[q], err = pcr.NewLoader(ds, append(opts, pcr.WithLoaderFilter(r.fx.pred))...); err != nil {
				ds.Close()
				return nil, err
			}
		}
		return e, nil
	}
	e, setupS, err := timeSetup(r.fx.resetMeta, setup, func(e *env) { e.ds.Close() })
	if err != nil {
		return err
	}
	defer e.ds.Close()
	r.e2e["setup_s"] = setupS

	var batches int
	var stall time.Duration
	err = r.loop(func(i int, rd *round) error {
		for _, q := range qualities {
			if st, _, ok := r.loaderEpoch(rd, phaseQ(q), e.loaders[q], i, q, r.fx.numImages); ok {
				batches += st.Batches
				stall += st.Stall
			}
		}
		for _, q := range qualities {
			st, db, ok := r.loaderEpoch(rd, filteredPhase(q), e.filtered[q], i, q, r.fx.plans[q].Selected)
			if !ok {
				continue
			}
			batches += st.Batches
			stall += st.Stall
			// EpochStats has no skipped-record count; the index-only plan
			// of the same filter does.
			r.addFilterStats(rd, pcr.FilterStats{
				Selected:       int64(st.Images),
				Skipped:        int64(st.SkippedImages),
				RecordsSkipped: int64(r.fx.plans[q].RecordsSkipped),
				BytesRead:      st.BytesRead,
				BytesAvoided:   st.BytesAvoided,
			}, db)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.finish(qualityPhases()...)
	if r.tr == nil {
		return nil
	}
	r.layer["pcr.loader.batches"] = float64(batches)
	r.layer["pcr.loader.stall_ms"] = stall.Seconds() * 1e3
	return r.replayLocal(true)
}

// loaderEpoch streams one epoch, timing each wait for a batch and checking
// every delivered sample: the encoded stream against the reference and the
// decoded image's size.
// It returns the epoch's stats and the delivered encoded bytes.
func (r *run) loaderEpoch(rd *round, phase string, l *pcr.Loader, epoch, q, want int) (pcr.EpochStats, int64, bool) {
	edge := r.fx.profile.ImageSize
	es := r.tr.begin("pcr.loader.epoch", "")
	var waits []time.Duration
	var delivered int
	var deliveredBytes int64
	var failed bool
	t0 := time.Now()
	w0 := t0
	step := r.tr.begin("pcr.loader.step", "")
	for b, err := range l.Epoch(context.Background(), epoch) {
		w := time.Since(w0)
		r.tr.end(step)
		if !r.op(err, "%s epoch %d at q%d", phase, epoch, q) {
			failed = true
			break
		}
		waits = append(waits, w)
		if len(b.Samples) == 0 || len(b.Samples) > 32 {
			r.problem("%s epoch %d: batch of %d samples", phase, epoch, len(b.Samples))
		}
		for _, s := range b.Samples {
			if s.Image == nil || s.Image.Bounds().Dx() != edge || s.Image.Bounds().Dy() != edge {
				r.problem("%s epoch %d: sample %d is not a decoded %d×%d image", phase, epoch, s.ID, edge, edge)
			}
			deliveredBytes += int64(len(s.JPEG))
		}
		delivered += r.checkEncoded(phase, q, b.Samples, isFiltered(phase))
		w0 = time.Now()
		step = r.tr.begin("pcr.loader.step", "")
	}
	r.tr.end(step)
	secs := time.Since(t0).Seconds()
	r.tr.end(es)
	r.addWaits(waits, decodeWorkers)
	if failed {
		return pcr.EpochStats{}, 0, false
	}
	if delivered != want {
		r.problem("%s epoch %d at q%d delivered %d samples, want %d", phase, epoch, q, delivered, want)
	}
	st, ok := l.LastEpochStats()
	if !ok || st.Images != delivered {
		r.problem("%s epoch %d: EpochStats reports %d images, delivered %d", phase, epoch, st.Images, delivered)
	}
	rd.add(phase, decodeWorkers, int64(delivered), secs, st.BytesRead)
	if isFiltered(phase) {
		if st.BytesRead != r.fx.plans[q].Bytes {
			r.problem("filtered epoch %d at q%d read %d bytes, PlanFilter says %d", epoch, q, st.BytesRead, r.fx.plans[q].Bytes)
		}
	} else if st.BytesRead != r.fx.sizes[q] {
		r.problem("epoch %d at q%d read %d bytes, SizeAtQuality is %d", epoch, q, st.BytesRead, r.fx.sizes[q])
	}
	return st, deliveredBytes, true
}

// ---- shared read passes ----

// readPass reads every record at quality q with two closed-loop readers,
// each owning alternate records, timing each ReadRecordEncoded call. The
// samples are checked after the pass's clock stops. It returns the images
// delivered, the pass's duration and the calls' waits.
func (r *run) readPass(ds *pcr.Dataset, q int, where string) (int, float64, []time.Duration) {
	n := ds.NumRecords()
	results := make([][]pcr.Sample, n)
	waits := make([][]time.Duration, readers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += readers {
				s := r.tr.begin("pcr.read_record", r.fx.names[i])
				w0 := time.Now()
				samples, err := ds.ReadRecordEncoded(i, q)
				w := time.Since(w0)
				r.tr.end(s)
				if r.op(err, "%s: record %d at q%d", where, i, q) {
					waits[k] = append(waits[k], w)
					results[i] = samples
				}
			}
		}(k)
	}
	wg.Wait()
	secs := time.Since(t0).Seconds()
	images := 0
	for _, samples := range results {
		images += r.checkEncoded(where, q, samples, false)
	}
	if images != r.fx.numImages {
		r.problem("%s pass at q%d delivered %d samples, want %d", where, q, images, r.fx.numImages)
	}
	return images, secs, slices.Concat(waits...)
}

// filteredPass is one filtered ScanEncoded pass at quality q: one scan
// per dataset, all at once (a sharded dataset passes one per shard, so both
// readers stay busy). It returns the samples delivered, the pass's
// duration, and the scans' FilterStats summed.
func (r *run) filteredPass(rd *round, dss []*pcr.Dataset, q int, where string) (int, float64, pcr.FilterStats) {
	stats := make([]pcr.FilterStats, len(dss))
	got := make([][]pcr.Sample, len(dss))
	errs := make([]error, len(dss))
	var wg sync.WaitGroup
	t0 := time.Now()
	for k, ds := range dss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := r.tr.begin("pcr.scan_filtered", "")
			defer r.tr.end(s)
			for smp, err := range ds.ScanEncoded(context.Background(), q, pcr.WithFilter(r.fx.pred), pcr.WithFilterStats(&stats[k])) {
				if err != nil {
					errs[k] = err
					return
				}
				got[k] = append(got[k], smp)
			}
		}()
	}
	wg.Wait()
	secs := time.Since(t0).Seconds()
	var total pcr.FilterStats
	n := 0
	var delivered int64
	for k := range dss {
		if !r.op(errs[k], "%s: filtered scan %d at q%d", where, k, q) {
			continue
		}
		n += r.checkEncoded(where+" filtered", q, got[k], true)
		for _, smp := range got[k] {
			delivered += int64(len(smp.JPEG))
		}
		sumFilterStats(&total, stats[k])
	}
	if want := r.fx.plans[q].Selected; n != want {
		r.problem("%s filtered pass at q%d delivered %d samples, PlanFilter selects %d", where, q, n, want)
	}
	r.addFilterStats(rd, total, delivered)
	return n, secs, total
}

// addFilterStats folds one filtered pass's counters into the run's totals
// and its delivered sample bytes into the round's. Filtered passes run one
// at a time.
func (r *run) addFilterStats(rd *round, fs pcr.FilterStats, delivered int64) {
	sumFilterStats(&r.filt, fs)
	rd.delivered += delivered
}

func sumFilterStats(dst *pcr.FilterStats, fs pcr.FilterStats) {
	dst.Selected += fs.Selected
	dst.Skipped += fs.Skipped
	dst.RecordsSkipped += fs.RecordsSkipped
	dst.BytesRead += fs.BytesRead
	dst.BytesAvoided += fs.BytesAvoided
}

// ---- in-process server ----

// server is a serve.Server on a loopback listener, reading the fixture
// through a timing backend, behind the benchmark's middleware.
type server struct {
	cds     *core.Dataset
	backend *timedBackend
	srv     *serve.Server
	probe   *serverProbe
	hs      *http.Server
	url     string
	served  chan error
}

func (r *run) startServer() (*server, error) {
	cds, err := core.OpenDataset(r.fx.dir)
	if err != nil {
		return nil, err
	}
	tb := &timedBackend{Backend: cds.Backend(), name: "core.backend.read", tr: r.tr}
	cds.SetBackend(tb)
	srv, err := serve.NewFromDataset(cds, &serve.Options{})
	if err != nil {
		cds.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cds.Close()
		return nil, err
	}
	s := &server{cds: cds, backend: tb, srv: srv, probe: newServerProbe(srv, r.tr), url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.probe}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and returns its counters. They are read only
// after Shutdown returns, when every response's bytes have been counted.
func (s *server) stop() (serve.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	st := s.srv.Stats()
	if cerr := s.cds.Close(); err == nil {
		err = cerr
	}
	return st, err
}

// recordBytesSince settles in-flight requests and returns the record bytes
// served since mark.
func (s *server) recordBytesSince(mark int64) int64 {
	s.probe.settle()
	return s.probe.recordBytes.Load() - mark
}

// remoteSetup starts a server and opens it remotely with opts.
func (r *run) remoteSetup(opts func() []pcr.Option) (*server, *pcr.Dataset, float64, error) {
	type env struct {
		s  *server
		ds *pcr.Dataset
	}
	e, secs, err := timeSetup(r.fx.resetMeta, func() (env, error) {
		s, err := r.startServer()
		if err != nil {
			return env{}, err
		}
		ds, err := pcr.OpenRemote(s.url, opts()...)
		if err != nil {
			s.stop()
			return env{}, err
		}
		return env{s, ds}, nil
	}, func(e env) {
		e.ds.Close()
		e.s.stop()
	})
	return e.s, e.ds, secs, err
}

// checkServer compares the server's own counters, read after shutdown,
// with what the benchmark's middleware counted.
func (r *run) checkServer(st serve.Stats, s *server) {
	if got := s.probe.recordBytes.Load(); st.BytesServed != got {
		r.problem("server counted %d record bytes served, the middleware saw %d", st.BytesServed, got)
	}
	if st.Errors != 0 && r.failed.Load() == 0 {
		r.problem("server answered %d requests with errors", st.Errors)
	}
}

// ---- remote-read ----

// remoteRead reads encoded records over HTTP with no cache anywhere: one
// pass per quality and one pushed-down filtered pass per quality per round.
func (r *run) remoteRead() error {
	s, ds, setupS, err := r.remoteSetup(func() []pcr.Option {
		return []pcr.Option{pcr.WithPrefetchWorkers(decodeWorkers)}
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setupS
	fail := func(err error) error {
		ds.Close()
		s.stop()
		return err
	}
	// The filtered passes read through one stride shard per reader.
	var shards []*pcr.Dataset
	defer func() {
		for _, sd := range shards {
			sd.Close()
		}
	}()
	for k := 0; k < readers; k++ {
		sd, err := pcr.OpenRemote(s.url, pcr.WithPrefetchWorkers(decodeWorkers), pcr.WithIndexShard(k, readers))
		if err != nil {
			return fail(err)
		}
		shards = append(shards, sd)
	}
	err = r.loop(func(i int, rd *round) error {
		for _, q := range qualities {
			mark := s.probe.recordBytes.Load()
			n, secs, waits := r.readPass(ds, q, "remote")
			r.addWaits(waits, readers)
			b := s.recordBytesSince(mark)
			if b != r.fx.sizes[q] {
				r.problem("remote pass at q%d moved %d bytes, SizeAtQuality is %d", q, b, r.fx.sizes[q])
			}
			rd.add(phaseQ(q), readers, int64(n), secs, b)

			mark = s.probe.recordBytes.Load()
			n, secs, _ = r.filteredPass(rd, shards, q, "remote")
			b = s.recordBytesSince(mark)
			if b != r.fx.plans[q].Bytes {
				r.problem("pushdown pass at q%d moved %d bytes, PlanFilter says %d", q, b, r.fx.plans[q].Bytes)
			}
			rd.add(filteredPhase(q), len(shards), int64(n), secs, b)
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	r.finish(qualityPhases()...)
	if r.tr != nil {
		if err := r.replayRemote(s, false); err != nil {
			return fail(err)
		}
	}
	cs, _ := ds.ClusterStats()
	r.clusterLayer(cs)
	if err := ds.Close(); err != nil {
		r.problem("closing remote dataset: %v", err)
	}
	st, err := s.stop()
	if err != nil {
		return err
	}
	r.checkServer(st, s)
	if st.PushdownRequests == 0 {
		r.problem("no filtered read was pushed down to the server")
	}
	r.serverLayer(st, s)
	return nil
}

// ---- cache-upgrade ----

// cacheUpgrade reads encoded records through the client's memory and disk
// caches, both empty when the run starts. Every round cycles
// q1→q5→q10→q5→q1: the first round fills the disk cache (cold reads, then
// delta upgrades), and later rounds churn the memory cache over a warm
// disk cache with no upstream bytes. A second dataset with its own empty
// caches serves one filtered pass per quality per round.
func (r *run) cacheUpgrade() error {
	cacheRoot := filepath.Join(r.work, "diskcache", fmt.Sprintf("%s-%d", r.workload, os.Getpid()))
	defer os.RemoveAll(cacheRoot)
	dirs := 0
	cachedOpts := func() []pcr.Option {
		dirs++
		dir := filepath.Join(cacheRoot, fmt.Sprintf("c%d", dirs))
		return []pcr.Option{
			pcr.WithPrefetchWorkers(decodeWorkers),
			pcr.WithCacheBytes(memCacheBytes),
			pcr.WithDiskCache(dir, diskCacheBytes),
		}
	}
	s, ds, setupS, err := r.remoteSetup(cachedOpts)
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setupS
	fds, err := pcr.OpenRemote(s.url, cachedOpts()...)
	if err != nil {
		ds.Close()
		s.stop()
		return err
	}
	closeAll := func() {
		if err := ds.Close(); err != nil {
			r.problem("closing cached dataset: %v", err)
		}
		if err := fds.Close(); err != nil {
			r.problem("closing cached dataset: %v", err)
		}
	}

	err = r.loop(func(i int, rd *round) error {
		// A quality's passes of one cycle make one sample.
		images, secs, moved := map[int]int64{}, map[int]float64{}, map[int]int64{}
		prev := 0
		for k, q := range cycle {
			mark := s.probe.recordBytes.Load()
			n, t, waits := r.readPass(ds, q, "cached")
			r.addWaits(waits, readers)
			b := s.recordBytesSince(mark)
			want := int64(0)
			if i == 0 && k < len(cycle)/2+1 {
				want = r.fx.sizes[q] - r.fx.sizes[prev]
				prev = q
			}
			if b != want {
				r.problem("round %d cached pass %d at q%d moved %d upstream bytes, want %d", i, k, q, b, want)
			}
			images[q] += int64(n)
			secs[q] += t
			moved[q] += b
		}
		var cycleImages int64
		var cycleSecs float64
		for _, q := range qualities {
			rd.add(phaseQ(q), readers, images[q], secs[q], moved[q])
			cycleImages += images[q]
			cycleSecs += secs[q]
		}
		if i == 0 {
			// The cold cycle, fills and delta upgrades included. It is
			// reported but not gated: each fill fsyncs, and the shared
			// disk's fsync latency swings two-fold between runs.
			r.layer["cache.cold_img_per_s"] = float64(cycleImages) / cycleSecs
		}

		var prevBytes int64
		for _, q := range qualities {
			mark := s.probe.recordBytes.Load()
			n, secs, _ := r.filteredPass(rd, []*pcr.Dataset{fds}, q, "cached")
			b := s.recordBytesSince(mark)
			want := int64(0)
			if i == 0 {
				want = r.fx.selectedPrefixBytes(q) - prevBytes
				prevBytes += want
			}
			if b != want {
				r.problem("round %d cached filtered pass at q%d moved %d upstream bytes, want %d", i, q, b, want)
			}
			rd.add(filteredPhase(q), 1, int64(n), secs, b)
		}
		return nil
	})
	if err != nil {
		closeAll()
		s.stop()
		return err
	}
	r.finish(qualityPhases()...)
	if r.tr != nil {
		cst, _ := ds.CacheStats()
		dst, _ := ds.DiskCacheStats()
		r.cacheLayer(cst, dst)
		if err := r.replayRemote(s, true); err != nil {
			closeAll()
			s.stop()
			return err
		}
	}
	cs, _ := ds.ClusterStats()
	r.clusterLayer(cs)
	closeAll()
	st, err := s.stop()
	if err != nil {
		return err
	}
	r.checkServer(st, s)
	r.serverLayer(st, s)
	return nil
}

// ---- ingest ----

// ingest writes the fixture's pixels into a fresh dataset with one
// pcr.Writer per round, then reads the new dataset back locally: passes per
// quality and a filtered pass per quality, checked against the fixture.
func (r *run) ingest() error {
	root := filepath.Join(r.work, "ingest", fmt.Sprintf("%d", os.Getpid()))
	defer os.RemoveAll(root)
	dirs := 0
	newDir := func() string {
		dirs++
		return filepath.Join(root, fmt.Sprintf("d%d", dirs))
	}
	gen, err := synth.Generate(r.fx.profile, r.seed)
	if err != nil {
		return err
	}
	create := func(dir string) (*pcr.Writer, error) {
		return pcr.Create(dir, pcr.WithImagesPerRecord(imagesPerRecord), pcr.WithJPEGQuality(r.fx.profile.JPEGQuality))
	}
	// Set-up on ingest runs until the first record is written: Create,
	// then the appends that fill and flush record 0. Create alone is about
	// 0.1 ms of file-system metadata work, whose latency on a shared disk
	// swings several-fold from minute to minute.
	type env struct {
		w   *pcr.Writer
		dir string
	}
	firstRecord := func() (env, error) {
		dir := newDir()
		w, err := create(dir)
		if err != nil {
			return env{}, err
		}
		for _, smp := range gen.Train[:imagesPerRecord] {
			if err := w.Append(pcr.Sample{ID: int64(smp.ID), Label: int64(smp.Label), Image: smp.Img}); err != nil {
				w.Close()
				return env{}, err
			}
		}
		return env{w, dir}, nil
	}
	discard := func(e env) {
		e.w.Close()
		os.RemoveAll(e.dir)
	}
	e, setupS, err := timeSetup(nil, firstRecord, discard)
	if err != nil {
		return err
	}
	discard(e)
	r.e2e["setup_s"] = setupS

	err = r.loop(func(i int, rd *round) error {
		dir := newDir()
		waits := make([]time.Duration, 0, len(gen.Train))
		// Each record's worth of appends is one sample of the ingest rate;
		// Create is charged to the first and Close to the last.
		chunk := time.Now()
		cs := r.tr.begin("pcr.create", "")
		w, err := create(dir)
		r.tr.end(cs)
		if !r.op(err, "create %s", dir) {
			return nil
		}
		pending := 0
		for k, smp := range gen.Train {
			as := r.tr.begin("pcr.writer.append", "")
			w0 := time.Now()
			err := w.Append(pcr.Sample{ID: int64(smp.ID), Label: int64(smp.Label), Image: smp.Img})
			waits = append(waits, time.Since(w0))
			r.tr.end(as)
			r.op(err, "append sample %d", smp.ID)
			if pending++; pending == imagesPerRecord && k < len(gen.Train)-1 {
				rd.add("ingest", 1, int64(pending), time.Since(chunk).Seconds(), 0)
				chunk, pending = time.Now(), 0
			}
		}
		cl := r.tr.begin("pcr.writer.close", "")
		err = w.Close()
		r.tr.end(cl)
		rd.add("ingest", 1, int64(pending), time.Since(chunk).Seconds(), 0)
		r.op(err, "close %s", dir)
		r.addWaits(waits, 1)

		ds, err := pcr.Open(dir, pcr.WithPrefetchWorkers(decodeWorkers))
		if !r.op(err, "open ingested %s", dir) {
			return nil
		}
		for _, q := range qualities {
			for p := 0; p < readBackPasses; p++ {
				// Only the appends are ingest's waits.
				n, secs, _ := r.readPass(ds, q, "read-back")
				rd.add(phaseQ(q), readers, int64(n), secs, r.fx.sizes[q])
			}
			for p := 0; p < filteredReadBackPasses; p++ {
				n, secs, fs := r.filteredPass(rd, []*pcr.Dataset{ds}, q, "read-back")
				if fs.BytesRead != r.fx.plans[q].Bytes {
					r.problem("read-back filtered pass at q%d read %d bytes, PlanFilter says %d", q, fs.BytesRead, r.fx.plans[q].Bytes)
				}
				rd.add(filteredPhase(q), 1, int64(n), secs, fs.BytesRead)
			}
		}
		if err := ds.Close(); err != nil {
			r.problem("closing ingested dataset: %v", err)
		}
		return os.RemoveAll(dir)
	})
	if err != nil {
		return err
	}
	r.finish("ingest")
	if r.tr != nil {
		return r.replayIngest(gen)
	}
	return nil
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// ---- layer counters read from public Stats APIs ----

// filterLayer reports the filtered passes' counters. delivered_per_moved
// divides the first round's delivered sample bytes by the bytes the
// workload counts as moved for its filtered passes (wire bytes on the
// remote workloads), the same round bytes_per_img describes.
func (r *run) filterLayer() {
	fs := r.filt
	r.layer["pcr.filter.selected"] = float64(fs.Selected)
	r.layer["pcr.filter.skipped"] = float64(fs.Skipped)
	r.layer["pcr.filter.records_skipped"] = float64(fs.RecordsSkipped)
	r.layer["pcr.filter.bytes_read"] = float64(fs.BytesRead)
	r.layer["pcr.filter.bytes_avoided"] = float64(fs.BytesAvoided)
	if len(r.rounds) == 0 {
		return
	}
	var moved int64
	for _, p := range filteredPhases() {
		moved += r.rounds[0].bytes[p]
	}
	if moved > 0 {
		r.layer["pcr.filter.delivered_per_moved"] = float64(r.rounds[0].delivered) / float64(moved)
	}
}

// cacheLayer adds one dataset's cache counters to the run's.
func (r *run) cacheLayer(c pcr.CacheStats, d pcr.DiskCacheStats) {
	r.layer["cache.hits"] = float64(c.Hits)
	r.layer["cache.upgrade_hits"] = float64(c.UpgradeHits)
	r.layer["cache.misses"] = float64(c.Misses)
	r.layer["cache.evictions"] = float64(c.Evictions)
	if n := c.Hits + c.UpgradeHits + c.Misses; n > 0 {
		r.layer["cache.hit_ratio"] = float64(c.Hits) / float64(n)
	}
	r.layer["cache.bytes_fetched"] = float64(c.BytesFetched)
	r.layer["diskcache.hits"] = float64(d.Hits)
	r.layer["diskcache.delta_hits"] = float64(d.DeltaHits)
	r.layer["diskcache.misses"] = float64(d.Misses)
	r.layer["diskcache.bytes_fetched"] = float64(d.BytesFetched)
	r.layer["diskcache.delta_bytes"] = float64(d.DeltaBytes)
	r.layer["diskcache.evictions"] = float64(d.Evictions)
}

func (r *run) clusterLayer(c pcr.ClusterStats) {
	if r.tr == nil {
		return
	}
	r.layer["serve.client.hedges"] = float64(c.Hedges)
	r.layer["serve.client.failovers"] = float64(c.Failovers)
	r.layer["serve.client.refreshes"] = float64(c.Refreshes)
}

func (r *run) serverLayer(st serve.Stats, s *server) {
	if r.tr == nil {
		return
	}
	r.layer["serve.server.requests"] = float64(st.Requests)
	r.layer["serve.server.errors"] = float64(st.Errors)
	r.layer["serve.server.bytes_served"] = float64(st.BytesServed)
	r.layer["serve.server.bytes_read"] = float64(st.BytesRead)
	r.layer["serve.server.pushdown_requests"] = float64(st.PushdownRequests)
	r.layer["serve.server.pushdown_bytes_saved"] = float64(st.PushdownBytesSaved)
	r.layer["serve.server.handler.self_ms"] = r.tr.selfMs("serve.server.handler")
	h := r.tr.agg("serve.server.handler")
	durs := make([]time.Duration, len(h.durs))
	for i, d := range h.durs {
		durs[i] = time.Duration(d)
	}
	slices.Sort(durs)
	r.layer["serve.server.handler.p99_us"] = float64(percentile(durs, 0.99).Microseconds())
	r.backendLayer(s.backend)
}

func (r *run) backendLayer(b *timedBackend) {
	r.layer["core.backend.reads"] += float64(b.reads.Load())
	r.layer["core.backend.bytes"] += float64(b.bytes.Load())
	r.layer["core.backend.failed"] += float64(b.failed.Load())
	r.layer["core.backend.self_ms"] = r.tr.selfMs("core.backend.read")
}
