package jpegc

import "math"

// cosTable[u][x] = cos((2x+1)uπ/16), precomputed for the 8-point DCT.
var cosTable [8][8]float64

func init() {
	for u := 0; u < 8; u++ {
		for x := 0; x < 8; x++ {
			cosTable[u][x] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
	}
}

// fdct computes the forward 8×8 DCT-II in place. Input samples should be
// level-shifted (centered on zero). The output follows the JPEG convention:
// out[v*8+u] = 1/4 C(u) C(v) ΣΣ in[y*8+x] cos((2x+1)uπ/16) cos((2y+1)vπ/16).
//
// Both separable passes are unrolled, but every output is computed with
// exactly the float operations of the textbook double loop: each 8-term sum
// starts from +0 and adds the products left to right, then scales by
// C(u)/2. The float64 conversions stop the compiler from fusing a multiply
// and add on platforms with FMA, so coefficients, and hence the encoded
// bytes, are the same on every platform.
func fdct(b *[64]float64) {
	var tmp [64]float64
	// Rows: 1-D DCT along x.
	for y := 0; y < 8; y++ {
		dct8((*[8]float64)(b[y*8:]), (*[8]float64)(tmp[y*8:]))
	}
	// Columns: 1-D DCT along y, gathered from and scattered to stride 8.
	var col, out [8]float64
	for u := 0; u < 8; u++ {
		for y := 0; y < 8; y++ {
			col[y] = tmp[y*8+u]
		}
		dct8(&col, &out)
		for v := 0; v < 8; v++ {
			b[v*8+u] = out[v]
		}
	}
}

// dct8 is the scaled 1-D DCT of the 8 samples in: out[u] = C(u)/2 Σx
// in[x] cos((2x+1)uπ/16).
func dct8(in, out *[8]float64) {
	x0, x1, x2, x3, x4, x5, x6, x7 := in[0], in[1], in[2], in[3], in[4], in[5], in[6], in[7]
	for u := 0; u < 8; u++ {
		c := &cosTable[u]
		s := 0 + float64(x0*c[0]) + float64(x1*c[1]) + float64(x2*c[2]) + float64(x3*c[3]) +
			float64(x4*c[4]) + float64(x5*c[5]) + float64(x6*c[6]) + float64(x7*c[7])
		if u == 0 {
			out[0] = s * (math.Sqrt2 / 2) / 2
		} else {
			out[u] = s / 2
		}
	}
}
