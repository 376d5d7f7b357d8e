package pcr_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/jpegc"
	"repro/internal/synth"
	"repro/pcr"
)

// writerImages returns a few small synthetic images and the quality the
// Writer encodes them at.
func writerImages(t *testing.T) ([]synth.Sample, int) {
	t.Helper()
	p := synth.Cars.Scaled(0.05)
	ds, err := synth.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Train, p.JPEGQuality
}

func writeDataset(t *testing.T, dir string, samples []pcr.Sample, opts ...pcr.Option) {
	t.Helper()
	w, err := pcr.Create(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if err := w.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBaselineFormatsStoreBaseline checks that the paper's baseline formats
// store what a baseline-JPEG dataset holds: the Writer's baseline (SOF0)
// encoding of each image, not the progressive stream a PCR stores.
func TestBaselineFormatsStoreBaseline(t *testing.T) {
	imgs, quality := writerImages(t)
	want := map[int64][]byte{}
	var samples []pcr.Sample
	for _, s := range imgs {
		data, err := jpegc.Encode(s.Img, &jpegc.Options{Quality: quality, Subsample420: true})
		if err != nil {
			t.Fatal(err)
		}
		want[int64(s.ID)] = data
		samples = append(samples, pcr.Sample{ID: int64(s.ID), Label: int64(s.Label), Image: s.Img})
	}
	for _, format := range []pcr.Format{pcr.TFRecord, pcr.FilePerImage} {
		t.Run(format.Name(), func(t *testing.T) {
			dir := t.TempDir()
			writeDataset(t, dir, samples, pcr.WithFormat(format), pcr.WithJPEGQuality(quality))
			ds, err := pcr.Open(dir, pcr.WithFormat(format))
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			n := 0
			for s, err := range ds.ScanEncoded(context.Background(), pcr.Full) {
				if err != nil {
					t.Fatal(err)
				}
				idx, err := jpegc.IndexScans(s.JPEG)
				if err != nil {
					t.Fatalf("sample %d: %v", s.ID, err)
				}
				if idx.Progressive {
					t.Fatalf("sample %d stored as a progressive stream", s.ID)
				}
				if !bytes.Equal(s.JPEG, want[s.ID]) {
					t.Fatalf("sample %d: stored %d B, not the baseline encoding (%d B)", s.ID, len(s.JPEG), len(want[s.ID]))
				}
				n++
			}
			if n != len(samples) {
				t.Fatalf("scanned %d samples, wrote %d", n, len(samples))
			}
		})
	}
}

// TestPCRFromPixelsEqualsFromBaselineJPEG checks that encoding pixels
// straight to progressive writes the same PCR dataset, file for file, as
// handing the Writer their baseline JPEGs to transcode.
func TestPCRFromPixelsEqualsFromBaselineJPEG(t *testing.T) {
	imgs, quality := writerImages(t)
	var fromPixels, fromJPEG []pcr.Sample
	for _, s := range imgs {
		data, err := jpegc.Encode(s.Img, &jpegc.Options{Quality: quality, Subsample420: true})
		if err != nil {
			t.Fatal(err)
		}
		fromPixels = append(fromPixels, pcr.Sample{ID: int64(s.ID), Label: int64(s.Label), Image: s.Img})
		fromJPEG = append(fromJPEG, pcr.Sample{ID: int64(s.ID), Label: int64(s.Label), JPEG: data})
	}
	a, b := t.TempDir(), t.TempDir()
	opts := []pcr.Option{pcr.WithJPEGQuality(quality), pcr.WithImagesPerRecord(8)}
	writeDataset(t, a, fromPixels, opts...)
	writeDataset(t, b, fromJPEG, opts...)
	files := 0
	err := filepath.WalkDir(a, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(a, path)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		want, err := os.ReadFile(filepath.Join(b, rel))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: written from pixels (%d B) differs from written from baseline JPEGs (%d B)", rel, len(got), len(want))
		}
		files++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 2 {
		t.Fatalf("dataset has only %d files", files)
	}
}
