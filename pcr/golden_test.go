package pcr_test

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/pcr"
)

// TestSynthesizeGoldenDigest pins the bytes the write path produces: the
// FNV-64a digest of every file Synthesize writes for a small cars dataset,
// as PCRs (with and without scan-group coalescing) and as a TFRecord. The
// encoder may get faster, but any change to these files means datasets
// (and benchmark fixtures) written before the change no longer match ones
// written after it.
func TestSynthesizeGoldenDigest(t *testing.T) {
	cases := []struct {
		name string
		opts []pcr.Option
		want map[string]uint64
	}{
		{"pcr", []pcr.Option{pcr.WithImagesPerRecord(16)}, map[string]uint64{
			"meta/000001.seg":  0xa3d83a283bdc6e9c,
			"record-00000.pcr": 0xcf874060cb32e548,
			"record-00001.pcr": 0xeabbd88be46410e3,
		}},
		{"pcr-3-groups", []pcr.Option{pcr.WithImagesPerRecord(16), pcr.WithScanGroups(3)}, map[string]uint64{
			"meta/000001.seg":  0xa4d1117edea48470,
			"record-00000.pcr": 0x3b5e9b7882a7cd28,
			"record-00001.pcr": 0xc1fd8f9e68e7e41d,
		}},
		{"tfrecord", []pcr.Option{pcr.WithFormat(pcr.TFRecord)}, map[string]uint64{
			"data.tfrecord": 0x57b0b638d88e073a,
			"tfrecord.meta": 0x3873858f906df9e3,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := pcr.Synthesize(dir, "cars", 0.1, 1, tc.opts...); err != nil {
				t.Fatal(err)
			}
			got := map[string]uint64{}
			err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				rel, err := filepath.Rel(dir, path)
				if err != nil {
					return err
				}
				h := fnv.New64a()
				h.Write(data)
				got[filepath.ToSlash(rel)] = h.Sum64()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for name, want := range tc.want {
				if got[name] != want {
					t.Errorf("%s: digest %#016x, want %#016x", name, got[name], want)
				}
			}
			if len(got) != len(tc.want) {
				t.Errorf("wrote %d files, want %d: %v", len(got), len(tc.want), got)
			}
		})
	}
}
