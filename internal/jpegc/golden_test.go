package jpegc

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// runsImage is a 182×182-block grayscale image whose every block holds a
// single ±6 at one of the first AC positions: every AC band codes EOB runs
// long enough to hit the 0x7FFF cap, and the refinement scans queue more
// correction bits than maxCorrBits before a symbol flushes them.
func runsImage() *CoeffImage {
	ci := &CoeffImage{Width: 182 * 8, Height: 182 * 8, NumComps: 1}
	ci.Quant[0], ci.Quant[1] = QuantTables(90)
	ci.Blocks[0] = make([]Block, 182*182)
	rng := rand.New(rand.NewSource(7))
	for i := range ci.Blocks[0] {
		v := int32(6)
		if rng.Intn(2) == 0 {
			v = -6
		}
		ci.Blocks[0][i][zigzag[1+rng.Intn(3)]] = v
		ci.Blocks[0][i][0] = int32(rng.Intn(64) - 32)
	}
	return ci
}

// TestEncodeCoeffsGoldenDigest pins the entropy coder's output: the FNV-64a
// digest of every stream, in every mode, for a fixed set of adversarial
// coefficient images. Speeding up the coder must leave every byte as it was.
func TestEncodeCoeffsGoldenDigest(t *testing.T) {
	modes := []struct {
		name string
		opts *Options
		want uint64
	}{
		{"baseline", &Options{}, 0x052d1ead45d24f15},
		{"baseline-optimized", &Options{OptimizeHuffman: true}, 0x2575a320e4db900e},
		{"progressive", &Options{Progressive: true}, 0x6606c43a38359862},
	}
	rng := rand.New(rand.NewSource(1))
	cis := []*CoeffImage{runsImage()}
	for i := 0; i < 64; i++ {
		cis = append(cis, randomCoeffImage(rng))
	}
	for _, m := range modes {
		h := fnv.New64a()
		for _, ci := range cis {
			data, err := EncodeCoeffs(ci, m.opts)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			h.Write(data)
		}
		if got := h.Sum64(); got != m.want {
			t.Errorf("%s: digest %#016x, want %#016x", m.name, got, m.want)
		}
	}
}
