package jpegc

import (
	"image"
	"testing"
)

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
