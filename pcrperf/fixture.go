package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/pcr"
)

const (
	// profileName is the synthetic profile every workload reads: 64×64
	// color images in 24 classes.
	profileName = "cars"
	// imagesPerRecord gives 77 records at scale 8.
	imagesPerRecord = 32
	// filterLabels is how many of the profile's classes the filter
	// selects: 6 of 24, about a quarter of the samples, which keeps the
	// selected share steady from seed to seed.
	filterLabels = 6
)

// fixture is a workload's input: a PCR dataset generated from the run's
// seed, cached on disk by (profile, scale, seed), plus reference digests
// and prices computed from it before anything is timed.
//
// Opening a PCR dataset adds an empty segment to its kvstore metadata
// directory, so a dataset opened over and over opens ever more slowly. A
// run therefore never opens the cached copy: it works on a private one
// whose record files are hard links to the cache's and whose metadata is
// copied afresh before each timed set-up (resetMeta).
type fixture struct {
	dir       string // the run's private copy
	cached    string
	profile   synth.Profile
	numImages int
	names     []string // record file names, by record index
	recLabels [][]int64
	// ref holds, per quality, a digest of each sample's encoded stream as
	// a direct core.Dataset.ReadRecordPrefix + SampleJPEG produces it.
	ref   map[int]map[int64]uint64
	sizes map[int]int64 // SizeAtQuality
	pred  pcr.Predicate
	plans map[int]pcr.FilterPlan
	// prefix[q][i] is record i's prefix length at quality q.
	prefix map[int][]int64
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// setupFixture builds (or reuses) the seeded dataset and derives its
// references. None of it is timed.
func (r *run) setupFixture(build fixtureBuilder) error {
	p, err := synth.ProfileByName(profileName)
	if err != nil {
		return err
	}
	cached := fixtureDir(r.work, r.scale, r.seed)
	if _, err := os.Stat(cached); err != nil {
		if err := build(cached, r.scale, r.seed); err != nil {
			return fmt.Errorf("building fixture: %w", err)
		}
	}
	fx := &fixture{
		dir:     filepath.Join(r.work, "runs", fmt.Sprint(os.Getpid())),
		cached:  cached,
		profile: p.Scaled(r.scale),
		ref:     map[int]map[int64]uint64{},
		sizes:   map[int]int64{},
		plans:   map[int]pcr.FilterPlan{},
		prefix:  map[int][]int64{},
	}

	labels := rand.New(rand.NewSource(r.seed)).Perm(p.FineClasses)[:filterLabels]
	slices.Sort(labels)
	var set []int64
	for _, l := range labels {
		set = append(set, int64(l))
	}
	fx.pred = pcr.LabelIn(set...)
	fmt.Fprintf(r.stdout, "fixture: %s seed %d, filter %s\n", cached, r.seed, fx.pred)
	r.fx = fx
	if err := fx.link(); err != nil {
		return err
	}

	ds, err := pcr.Open(fx.dir)
	if err != nil {
		return err
	}
	defer ds.Close()
	fx.numImages = ds.NumImages()
	for _, q := range qualities {
		if fx.sizes[q], err = ds.SizeAtQuality(q); err != nil {
			return err
		}
		if fx.plans[q], err = ds.PlanFilter(fx.pred, q); err != nil {
			return err
		}
		for i := 0; i < ds.NumRecords(); i++ {
			n, err := ds.RecordPrefixLen(i, q)
			if err != nil {
				return err
			}
			fx.prefix[q] = append(fx.prefix[q], n)
		}
	}

	// A record the reference cannot read is a failed check, not a reason to
	// stop: the workload still runs and counts its own failures.
	cds, err := core.OpenDataset(fx.dir)
	if err != nil {
		return err
	}
	defer cds.Close()
	for i := 0; i < cds.NumRecords(); i++ {
		name, err := cds.RecordName(i)
		if err != nil {
			return err
		}
		fx.names = append(fx.names, name)
		_, labels, err := cds.SampleIndex(i)
		if err != nil {
			return err
		}
		fx.recLabels = append(fx.recLabels, labels)
	}
	for _, q := range qualities {
		fx.ref[q] = map[int64]uint64{}
		for i := range fx.names {
			prefix, meta, err := cds.ReadRecordPrefix(i, q)
			if err != nil {
				r.problem("reference read of record %d at q%d: %v", i, q, err)
				continue
			}
			for si := range meta.Samples {
				stream, err := meta.SampleJPEG(prefix, si, q)
				if err != nil {
					r.problem("reference reassembly of record %d sample %d at q%d: %v", i, si, q, err)
					continue
				}
				fx.ref[q][meta.Samples[si].ID] = digest(stream)
			}
		}
	}
	return nil
}

// link makes the run's private copy of the cached fixture.
func (fx *fixture) link() error {
	if err := os.RemoveAll(fx.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(fx.dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(fx.cached)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := os.Link(filepath.Join(fx.cached, e.Name()), filepath.Join(fx.dir, e.Name())); err != nil {
			return err
		}
	}
	return fx.resetMeta()
}

// resetMeta replaces the private copy's metadata directory with the
// cache's, undoing what earlier opens added to it.
func (fx *fixture) resetMeta() error {
	src, dst := filepath.Join(fx.cached, "meta"), filepath.Join(fx.dir, "meta")
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fixtureDir is where the fixture for (profile, scale, seed) is cached.
func fixtureDir(work string, scale float64, seed int64) string {
	return filepath.Join(work, "fixtures", fmt.Sprintf("%s-scale%g-seed%d", profileName, scale, seed))
}

// buildFixture writes the seeded dataset into a temporary directory and
// renames it into place, so a cached fixture is always complete.
func buildFixture(dir string, scale float64, seed int64) error {
	tmp := fmt.Sprintf("%s.tmp-%d", dir, os.Getpid())
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return err
	}
	if _, err := pcr.Synthesize(tmp, profileName, scale, seed, pcr.WithImagesPerRecord(imagesPerRecord)); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	return os.Rename(tmp, dir)
}

// checkEncoded verifies samples read at quality q against the reference
// digests and, when filtered, against the predicate. It returns how many
// samples it saw.
func (r *run) checkEncoded(where string, q int, samples []pcr.Sample, filtered bool) int {
	ref := r.fx.ref[q]
	for _, s := range samples {
		want, ok := ref[s.ID]
		if !ok || digest(s.JPEG) != want {
			r.problem("%s: sample %d at q%d differs from a direct core read", where, s.ID, q)
		}
		if filtered && !r.fx.pred.Matches(s.ID, s.Label) {
			r.problem("%s: sample %d (label %d) does not match %s", where, s.ID, s.Label, r.fx.pred)
		}
	}
	return len(samples)
}

// selectedPrefixBytes is what a cached filtered read of quality q moves in
// total: the q prefix of every record holding a selected sample.
func (fx *fixture) selectedPrefixBytes(q int) int64 {
	var n int64
	for i, labels := range fx.recLabels {
		for _, l := range labels {
			if fx.pred.Matches(0, l) {
				n += fx.prefix[q][i]
				break
			}
		}
	}
	return n
}
