package jpegc

import (
	"image"
	"math"
	"testing"
)

// The encoder kernels below are the textbook forms of fdct, quantize,
// destuff and freqCounter.buildOptimal. The production kernels are
// unrolled or restructured for speed, and tests require them to return
// exactly what these do, bit for bit, so every encoded byte stays the same.

func dctScale(u int) float64 {
	if u == 0 {
		return math.Sqrt2 / 2 // 1/√2
	}
	return 1
}

// referenceFDCT is fdct as a plain double loop over the separable passes.
// Its float64 conversions are fdct's: they rule out fused multiply-adds, so
// both round every product and every partial sum the same way.
func referenceFDCT(b *[64]float64) {
	var tmp [64]float64
	// Rows: 1-D DCT along x.
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var s float64
			for x := 0; x < 8; x++ {
				s += float64(b[y*8+x] * cosTable[u][x])
			}
			tmp[y*8+u] = s * dctScale(u) / 2
		}
	}
	// Columns: 1-D DCT along y.
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var s float64
			for y := 0; y < 8; y++ {
				s += float64(tmp[y*8+u] * cosTable[v][y])
			}
			b[v*8+u] = s * dctScale(v) / 2
		}
	}
}

// referenceQuantize is quantize with a branch on the sign.
func referenceQuantize(coef float64, step uint16) int32 {
	v := coef / float64(step)
	if v >= 0 {
		return int32(v + 0.5)
	}
	return int32(v - 0.5)
}

// referenceDestuff is destuff as a single byte-at-a-time pass that finds
// the marker and unstuffs together.
func referenceDestuff(data []byte) (payload []byte, consumed int) {
	out := make([]byte, 0, len(data))
	i := 0
	for i < len(data) {
		b := data[i]
		if b != 0xFF {
			out = append(out, b)
			i++
			continue
		}
		if i+1 >= len(data) {
			// Trailing 0xFF with nothing after it: treat as data end.
			return out, i
		}
		next := data[i+1]
		switch {
		case next == 0x00:
			out = append(out, 0xFF)
			i += 2
		case next == 0xFF:
			// Fill byte; skip one 0xFF and re-examine.
			i++
		default:
			// A real marker terminates the entropy-coded segment.
			return out, i
		}
	}
	return out, i
}

// referenceBuildOptimal is buildOptimal as libjpeg's jpeg_gen_optimal_table
// writes it: every merge rescans all 257 slots for the two least-frequent
// entries, and the value list comes from a scan of every (length, symbol)
// pair.
func referenceBuildOptimal(f *freqCounter) *huffSpec {
	var freq [257]int64
	copy(freq[:], f[:])
	freq[256] = 1 // reserved: ensures no real all-ones code

	var codesize [257]int
	var others [257]int
	for i := range others {
		others[i] = -1
	}

	for {
		// Find the two least-frequent nonzero entries (c1 lowest, c2 next;
		// ties broken toward larger symbol value for c1 per libjpeg).
		c1, c2 := -1, -1
		v := int64(1) << 62
		for i := 0; i <= 256; i++ {
			if freq[i] != 0 && freq[i] <= v {
				v = freq[i]
				c1 = i
			}
		}
		v = int64(1) << 62
		for i := 0; i <= 256; i++ {
			if freq[i] != 0 && freq[i] <= v && i != c1 {
				v = freq[i]
				c2 = i
			}
		}
		if c2 < 0 {
			break // only one entry left: done
		}
		freq[c1] += freq[c2]
		freq[c2] = 0
		codesize[c1]++
		for others[c1] >= 0 {
			c1 = others[c1]
			codesize[c1]++
		}
		others[c1] = c2
		codesize[c2]++
		for others[c2] >= 0 {
			c2 = others[c2]
			codesize[c2]++
		}
	}

	var bits [33]int
	for i := 0; i <= 256; i++ {
		if codesize[i] > 0 {
			if codesize[i] > 32 {
				codesize[i] = 32
			}
			bits[codesize[i]]++
		}
	}

	// Limit code lengths to 16 bits (T.81 K.3 adjustment).
	for l := 32; l > 16; l-- {
		for bits[l] > 0 {
			j := l - 2
			for bits[j] == 0 {
				j--
			}
			bits[l] -= 2
			bits[l-1]++
			bits[j+1] += 2
			bits[j]--
		}
	}
	// Remove the reserved symbol's code from the longest used length.
	l := 16
	for l > 0 && bits[l] == 0 {
		l--
	}
	if l > 0 {
		bits[l]--
	}

	spec := &huffSpec{}
	for i := 1; i <= 16; i++ {
		spec.bits[i-1] = byte(bits[i])
	}
	// List symbols in increasing code-length order, breaking ties by value.
	for size := 1; size <= 32; size++ {
		for sym := 0; sym <= 255; sym++ {
			if codesize[sym] == size {
				spec.vals = append(spec.vals, byte(sym))
			}
		}
	}
	return spec
}

// The float pixel path below is a test reference, not a decoder: Decode
// takes its pixels from image/jpeg. Rebuilding pixels from DecodeCoeffs
// with an independent IDCT lets tests cross-check the coefficient decoder
// that Transcode depends on against the standard library's pixels.

// idct computes the inverse 8×8 DCT in place, undoing fdct.
func idct(b *[64]float64) {
	var tmp [64]float64
	// Columns first.
	for u := 0; u < 8; u++ {
		for y := 0; y < 8; y++ {
			var s float64
			for v := 0; v < 8; v++ {
				s += dctScale(v) * b[v*8+u] * cosTable[v][y]
			}
			tmp[y*8+u] = s / 2
		}
	}
	// Rows.
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			var s float64
			for u := 0; u < 8; u++ {
				s += dctScale(u) * tmp[y*8+u] * cosTable[u][x]
			}
			b[y*8+x] = s / 2
		}
	}
}

// referenceImage reconstructs pixels from quantized coefficients:
// dequantize, IDCT, level shift, clamp. Color images are returned as
// *image.YCbCr at the stream's native subsampling, grayscale as
// *image.Gray.
func referenceImage(ci *CoeffImage) image.Image {
	planes := make([][]uint8, ci.NumComps)
	strides := make([]int, ci.NumComps)
	var fb [64]float64
	for c := 0; c < ci.NumComps; c++ {
		quant := &ci.Quant[0]
		if c > 0 {
			quant = &ci.Quant[1]
		}
		bw, bh := ci.CompBlocksWide(c), ci.CompBlocksHigh(c)
		pw, ph := bw*8, bh*8
		plane := make([]uint8, pw*ph)
		for by := 0; by < bh; by++ {
			for bx := 0; bx < bw; bx++ {
				blk := &ci.Blocks[c][by*bw+bx]
				for k := 0; k < 64; k++ {
					fb[k] = float64(blk[k]) * float64(quant[k])
				}
				idct(&fb)
				for y := 0; y < 8; y++ {
					for x := 0; x < 8; x++ {
						v := fb[y*8+x] + 128
						var p uint8
						switch {
						case v <= 0:
							p = 0
						case v >= 255:
							p = 255
						default:
							p = uint8(v + 0.5)
						}
						plane[(by*8+y)*pw+bx*8+x] = p
					}
				}
			}
		}
		planes[c] = plane
		strides[c] = pw
	}

	rect := image.Rect(0, 0, ci.Width, ci.Height)
	if ci.NumComps == 1 {
		img := image.NewGray(rect)
		for y := 0; y < ci.Height; y++ {
			copy(img.Pix[y*img.Stride:y*img.Stride+ci.Width], planes[0][y*strides[0]:y*strides[0]+ci.Width])
		}
		return img
	}
	ratio := image.YCbCrSubsampleRatio444
	if ci.Subsample420 {
		ratio = image.YCbCrSubsampleRatio420
	}
	img := image.NewYCbCr(rect, ratio)
	for y := 0; y < ci.Height; y++ {
		copy(img.Y[y*img.YStride:y*img.YStride+ci.Width], planes[0][y*strides[0]:y*strides[0]+ci.Width])
	}
	cw, ch := ci.compSize(1)
	for y := 0; y < ch; y++ {
		copy(img.Cb[y*img.CStride:y*img.CStride+cw], planes[1][y*strides[1]:y*strides[1]+cw])
		copy(img.Cr[y*img.CStride:y*img.CStride+cw], planes[2][y*strides[2]:y*strides[2]+cw])
	}
	return img
}

// referenceDecode decodes data with DecodeCoeffs and rebuilds its pixels
// with referenceImage.
func referenceDecode(t *testing.T, data []byte) image.Image {
	t.Helper()
	ci, err := DecodeCoeffs(data)
	if err != nil {
		t.Fatalf("DecodeCoeffs: %v", err)
	}
	return referenceImage(ci)
}
