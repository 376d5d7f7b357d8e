package main

import (
	"bytes"
	"image/jpeg"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/synth"
)

// The host this benchmark runs on is shared: its CPU speed drifts by ±20%
// over seconds and by up to two-fold over minutes, as neighbours come and
// go. The process's CPU time drifts with it, so rates per CPU second do
// not cancel it. A run therefore measures the host alongside the
// program. Between passes it decodes a fixed set of baseline JPEGs with the
// standard library's image/jpeg, on one goroutine and on two in turn,
// since a neighbour slows a phase that keeps both vCPUs busy more than one
// that keeps a single vCPU busy. That code is not part of this repository,
// so a change to the program cannot move it. A burst starts only once any
// collection of the program's garbage has finished, so it does not share
// the CPU with one. A rate or wait measured on n goroutines, or a set-up
// time (one goroutine), is reported at calibReference[n]: scaled by it
// over the run's median n-goroutine calibration rate.

// calibReference is the calibration rate, in images per second, on one
// goroutine and on two of a 2-vCPU Xeon host at its median speed. Any
// fixed values would do: they only put the reported figures in images per
// second and milliseconds of that host.
var calibReference = [...]float64{1: 9200, 2: 17600}

const (
	// calibImages and calibReps size one calibration burst (about 15 ms).
	calibImages = 64
	calibReps   = 2
	// calibEvery spaces calibration bursts in time.
	calibEvery = 200 * time.Millisecond
)

// calibrator holds the calibration set and the rates measured so far, by
// goroutine count.
type calibrator struct {
	set    [][]byte
	last   time.Time
	bursts int
	rates  [3][]float64
}

// newCalibrator encodes a fixed synthetic image set (independent of the
// run's seed) with the standard library.
func newCalibrator() (*calibrator, error) {
	p, err := synth.ProfileByName(profileName)
	if err != nil {
		return nil, err
	}
	ds, err := synth.Generate(p.Scaled(float64(calibImages)/float64(p.NumImages)), 0)
	if err != nil {
		return nil, err
	}
	c := &calibrator{}
	for _, s := range ds.Train[:min(calibImages, len(ds.Train))] {
		var b bytes.Buffer
		if err := jpeg.Encode(&b, s.Img, &jpeg.Options{Quality: p.JPEGQuality}); err != nil {
			return nil, err
		}
		if _, err := jpeg.Decode(bytes.NewReader(b.Bytes())); err != nil {
			return nil, err
		}
		c.set = append(c.set, b.Bytes())
	}
	return c, nil
}

// maybe runs a calibration burst, on one goroutine and on two in turn,
// when calibEvery has passed since the last; the first call runs both, so
// even the shortest run has each rate. It runs between timed passes, never
// inside one.
func (c *calibrator) maybe() {
	if c == nil || time.Since(c.last) < calibEvery {
		return
	}
	// SetGCPercent(-1) returns once no collection is running; the burst
	// then starts with the collector idle and enabled again.
	debug.SetGCPercent(debug.SetGCPercent(-1))
	for threads := 1; threads <= readers; threads++ {
		if len(c.rates[threads]) == 0 || threads == 1+c.bursts%readers {
			c.burst(threads)
		}
	}
	c.bursts++
	c.last = time.Now()
}

// burst decodes the calibration set calibReps times on each of threads
// goroutines and records the rate.
func (c *calibrator) burst(threads int) {
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < threads; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < calibReps; rep++ {
				for _, b := range c.set {
					// newCalibrator decoded every image once already.
					_, _ = jpeg.Decode(bytes.NewReader(b))
				}
			}
		}()
	}
	wg.Wait()
	c.rates[threads] = append(c.rates[threads], float64(threads*calibReps*len(c.set))/time.Since(t0).Seconds())
}

// scale is the factor that brings a rate measured on the given number of
// goroutines to calibReference; a wait is divided by it.
func (c *calibrator) scale(threads int) float64 {
	if m := median(c.rates[threads]); m > 0 {
		return calibReference[threads] / m
	}
	return 1
}
