package main

// The replays of a traced run. pcr calls some layers internally, where the
// benchmark cannot put a span, so a traced run reads the same records at
// the same qualities again through those layers' own public functions and
// times each call. Their self times are reported per layer; the
// end-to-end metrics never include a replay.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/diskcache"
	"repro/internal/jpegc"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/pcr"
)

// replayLocal reads the fixture through core.Dataset.ReadRecordPrefix and
// RecordMeta.SampleJPEG at every reported quality and, with decode set,
// decodes each stream with jpegc.Decode and assembles batches of 32.
func (r *run) replayLocal(decode bool) error {
	r.tr.on.Store(true)
	defer r.tr.on.Store(false)
	cds, err := r.openCore()
	if err != nil {
		return err
	}
	defer cds.Close()
	tb := &timedBackend{Backend: cds.Backend(), name: "core.backend.read", tr: r.tr}
	cds.SetBackend(tb)

	edge := r.fx.profile.ImageSize
	var decoded int64
	var decodeAlloc uint64
	batch := make([]pcr.Sample, 0, 32)
	for _, q := range qualities {
		var ns, n int64
		for i, name := range r.fx.names {
			s := r.tr.begin("core.dataset.read_prefix", name)
			prefix, meta, err := cds.ReadRecordPrefix(i, q)
			r.tr.end(s)
			if !r.op(err, "replay: read record %d at q%d", i, q) {
				continue
			}
			streams := r.reassemble(name, q, prefix, meta)
			if !decode {
				continue
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for si, stream := range streams {
				s := r.tr.begin("jpegc.decode", name)
				t0 := time.Now()
				img, err := jpegc.Decode(stream)
				ns += int64(time.Since(t0))
				r.tr.end(s)
				n++
				if !r.op(err, "replay: decode record %d sample %d at q%d", i, si, q) {
					continue
				}
				if img.Bounds().Dx() != edge || img.Bounds().Dy() != edge {
					r.problem("replay: record %d sample %d decodes to %v", i, si, img.Bounds())
				}
				a := r.tr.begin("pcr.loader.assembly", "")
				batch = append(batch, pcr.Sample{ID: meta.Samples[si].ID, Label: meta.Samples[si].Label, JPEG: stream, Image: img})
				if len(batch) == cap(batch) {
					batch = make([]pcr.Sample, 0, 32)
				}
				r.tr.end(a)
			}
			runtime.ReadMemStats(&m1)
			decodeAlloc += m1.TotalAlloc - m0.TotalAlloc
		}
		if n > 0 {
			r.layer["jpegc.decode.us_per_img_"+phaseQ(q)] = float64(ns) / float64(n) / 1e3
			decoded += n
		}
	}
	if decode {
		r.layer["jpegc.decode.images"] = float64(decoded)
		r.layer["jpegc.decode.self_ms"] = r.tr.selfMs("jpegc.decode")
		r.layer["pcr.loader.assembly_ms"] = r.tr.selfMs("pcr.loader.assembly")
		if decoded > 0 {
			r.layer["jpegc.decode.alloc_bytes_per_img"] = float64(decodeAlloc) / float64(decoded)
		}
	}
	r.reassembleLayer()
	r.backendLayer(tb)
	return nil
}

// openCore opens the fixture with core.OpenDataset setupReps times,
// reports the median as core.open_ms, and returns the last one opened.
func (r *run) openCore() (*core.Dataset, error) {
	cds, ms, err := timeSetup(r.fx.resetMeta, func() (*core.Dataset, error) {
		s := r.tr.begin("core.open", "")
		defer r.tr.end(s)
		return core.OpenDataset(r.fx.dir)
	}, func(d *core.Dataset) { d.Close() })
	if err != nil {
		return nil, err
	}
	r.layer["core.open_ms"] = ms * 1e3
	return cds, nil
}

// reassemble splits a record prefix into its samples' streams with
// RecordMeta.SampleJPEG and checks them against the reference.
func (r *run) reassemble(name string, q int, prefix []byte, meta *core.RecordMeta) [][]byte {
	streams := make([][]byte, len(meta.Samples))
	for si := range meta.Samples {
		s := r.tr.begin("core.reassemble", name)
		stream, err := meta.SampleJPEG(prefix, si, q)
		r.tr.end(s)
		if !r.op(err, "replay: reassemble %s sample %d at q%d", name, si, q) {
			continue
		}
		if digest(stream) != r.fx.ref[q][meta.Samples[si].ID] {
			r.problem("replay: %s sample %d at q%d differs from the reference", name, si, q)
		}
		streams[si] = stream
	}
	return streams
}

func (r *run) reassembleLayer() {
	r.layer["core.reassemble.samples"] = float64(r.tr.agg("core.reassemble").count)
	r.layer["core.reassemble.self_ms"] = r.tr.selfMs("core.reassemble")
}

// replayRemote reads the fixture from the running server through
// serve.ClusterClient. Uncached, it reads every record prefix per quality
// and the filter's records by pushdown (ReadSamples). Cached, it runs one
// cache-upgrade cycle through cache.Cache.Get over a diskcache.Wrap of the
// client, both starting empty.
func (r *run) replayRemote(s *server, cached bool) error {
	r.tr.on.Store(true)
	defer r.tr.on.Store(false)
	cds, err := r.openCore()
	if err != nil {
		return err
	}
	if err := cds.Close(); err != nil {
		return err
	}
	cc, err := serve.NewClusterClient([]string{s.url}, nil)
	if err != nil {
		return err
	}
	defer cc.Close()
	client := &timedBackend{Backend: cc, name: "serve.client.read", tr: r.tr}

	if !cached {
		for _, q := range qualities {
			for i, name := range r.fx.names {
				data, err := client.ReadRange(name, 0, r.fx.prefix[q][i])
				if !r.op(err, "replay: client read %s at q%d", name, q) {
					continue
				}
				r.reassembleParsed(name, q, data)
			}
			for i, name := range r.fx.names {
				sel := make([]bool, len(r.fx.recLabels[i]))
				any := false
				for k, l := range r.fx.recLabels[i] {
					sel[k] = r.fx.pred.Matches(0, l)
					any = any || sel[k]
				}
				if !any {
					continue
				}
				sp := r.tr.begin("serve.client.read", name)
				_, err := cc.ReadSamples(name, q, sel)
				r.tr.end(sp)
				client.reads.Add(1)
				r.op(err, "replay: pushdown read %s at q%d", name, q)
			}
		}
	} else {
		gen, err := core.IndexFingerprint(s.cds.Index())
		if err != nil {
			return err
		}
		root := filepath.Join(r.work, "diskcache", fmt.Sprintf("replay-%d", os.Getpid()))
		defer os.RemoveAll(root)
		var opens []float64
		var dc *diskcache.Backend
		for k := 0; k < setupReps; k++ {
			sp := r.tr.begin("diskcache.open", "")
			t0 := time.Now()
			d, err := diskcache.Wrap(client, filepath.Join(root, fmt.Sprint(k)), diskCacheBytes, gen)
			opens = append(opens, time.Since(t0).Seconds()*1e3)
			r.tr.end(sp)
			if err != nil {
				return err
			}
			if k < setupReps-1 {
				d.Close()
			} else {
				dc = d
			}
		}
		defer dc.Close()
		r.layer["diskcache.open_ms"] = median(opens)
		disk := &timedBackend{Backend: dc, name: "diskcache.read", tr: r.tr}
		mem, err := cache.New(memCacheBytes, func(rec int, off, length int64) ([]byte, error) {
			return disk.ReadRange(r.fx.names[rec], off, length)
		})
		if err != nil {
			return err
		}
		for _, q := range cycle {
			for i, name := range r.fx.names {
				sp := r.tr.begin("cache.get", name)
				data, err := mem.Get(i, r.fx.prefix[q][i])
				r.tr.end(sp)
				if !r.op(err, "replay: cache get %s at q%d", name, q) {
					continue
				}
				r.reassembleParsed(name, q, data)
			}
		}
		r.layer["cache.get.self_ms"] = r.tr.selfMs("cache.get")
		r.layer["diskcache.read.self_ms"] = r.tr.selfMs("diskcache.read")
	}
	r.layer["serve.client.reads"] = float64(client.reads.Load())
	r.layer["serve.client.read.self_ms"] = r.tr.selfMs("serve.client.read")
	r.reassembleLayer()
	return nil
}

func (r *run) reassembleParsed(name string, q int, prefix []byte) {
	meta, err := core.ParseRecordMeta(prefix)
	if !r.op(err, "replay: parse %s at q%d", name, q) {
		return
	}
	r.reassemble(name, q, prefix, meta)
}

// replayIngest splits ingest into its layers: jpegc.Encode of each image,
// jpegc.Transcode to progressive, and core.DatasetWriter over the
// progressive streams (which it then stores without transcoding again).
// The written dataset must match the fixture byte for byte, and is then
// read back through replayLocal.
func (r *run) replayIngest(gen *synth.Dataset) error {
	r.tr.on.Store(true)
	defer r.tr.on.Store(false)
	opts := &jpegc.Options{Quality: r.fx.profile.JPEGQuality, Subsample420: true}
	var encNs, tcNs int64
	streams := make([][]byte, len(gen.Train))
	for i, smp := range gen.Train {
		s := r.tr.begin("jpegc.encode", "")
		t0 := time.Now()
		data, err := jpegc.Encode(smp.Img, opts)
		encNs += int64(time.Since(t0))
		r.tr.end(s)
		if !r.op(err, "replay: encode sample %d", smp.ID) {
			continue
		}
		s = r.tr.begin("jpegc.transcode", "")
		t0 = time.Now()
		streams[i], err = jpegc.Transcode(data, &jpegc.Options{Progressive: true})
		tcNs += int64(time.Since(t0))
		r.tr.end(s)
		r.op(err, "replay: transcode sample %d", smp.ID)
	}
	n := float64(len(gen.Train))
	r.layer["jpegc.encode.us_per_img"] = float64(encNs) / n / 1e3
	r.layer["jpegc.transcode.us_per_img"] = float64(tcNs) / n / 1e3

	dir := filepath.Join(r.work, "ingest", fmt.Sprintf("replay-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	s := r.tr.begin("core.writer.create", "")
	w, err := core.CreateDataset(dir, &core.DatasetOptions{ImagesPerRecord: imagesPerRecord})
	r.tr.end(s)
	if err != nil {
		return err
	}
	for i, smp := range gen.Train {
		s := r.tr.begin("core.writer.append", "")
		err := w.Append(core.Sample{ID: int64(smp.ID), Label: int64(smp.Label), JPEG: streams[i]})
		r.tr.end(s)
		r.op(err, "replay: core append sample %d", smp.ID)
	}
	s = r.tr.begin("core.writer.close", "")
	err = w.Close()
	r.tr.end(s)
	if err != nil {
		return err
	}
	r.layer["core.writer.self_ms"] = r.tr.selfMs("core.writer.create", "core.writer.append", "core.writer.close")
	written, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.layer["core.writer.bytes"] = float64(written)

	cds, err := core.OpenDataset(dir)
	if err != nil {
		return err
	}
	r.layer["core.writer.records"] = float64(cds.NumRecords())
	top := qualities[len(qualities)-1]
	for i := 0; i < cds.NumRecords(); i++ {
		prefix, meta, err := cds.ReadRecordPrefix(i, top)
		if !r.op(err, "replay: read written record %d", i) {
			continue
		}
		name, _ := cds.RecordName(i)
		r.reassemble(name, top, prefix, meta)
	}
	if err := cds.Close(); err != nil {
		return err
	}
	return r.replayLocal(false)
}
