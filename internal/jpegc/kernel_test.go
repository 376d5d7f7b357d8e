package jpegc

import (
	"bytes"
	"image"
	"image/color"
	"math"
	"math/rand"
	"testing"

	"repro/internal/synth"
)

// The encoder's kernels must reproduce the reference kernels in
// reference_test.go exactly, and the direct progressive encode must match
// transcoding a baseline encode byte for byte: PCR datasets written before
// and after a kernel change have to be identical.

func fdctMatches(t *testing.T, what string, in *[64]float64) {
	t.Helper()
	got, want := *in, *in
	fdct(&got)
	referenceFDCT(&want)
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: coefficient %d = %v (%#x), reference %v (%#x)", what, k,
				got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

func TestFDCTMatchesReferenceRandom(t *testing.T) {
	negZero := math.Copysign(0, -1)
	var zeros, tiny [64]float64
	for i := range zeros {
		zeros[i] = negZero
		tiny[i] = -5e-324 // products underflow to -0
	}
	fdctMatches(t, "negative zeros", &zeros)
	fdctMatches(t, "negative subnormals", &tiny)

	rng := rand.New(rand.NewSource(1))
	specials := []float64{0, negZero, 5e-324, -5e-324, 1e300, -1e300, 0.5, -128, 127}
	for trial := 0; trial < 20000; trial++ {
		var b [64]float64
		for i := range b {
			switch trial % 4 {
			case 0: // level-shifted 8-bit samples, what Analyze feeds in
				b[i] = float64(rng.Intn(256) - 128)
			case 1: // arbitrary reals
				b[i] = rng.NormFloat64() * 100
			case 2: // wide exponents
				b[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(200)-100)
			case 3: // signed zeros, subnormals and extremes
				b[i] = specials[rng.Intn(len(specials))]
			}
		}
		fdctMatches(t, "random block", &b)
	}
}

func TestFDCTMatchesReferenceSynth(t *testing.T) {
	p := synth.Cars
	p.NumImages = 40
	ds, err := synth.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for _, s := range ds.Train {
		bnd := s.Img.Bounds()
		for by := bnd.Min.Y; by+8 <= bnd.Max.Y; by += 8 {
			for bx := bnd.Min.X; bx+8 <= bnd.Max.X; bx += 8 {
				var planes [3][64]float64
				for y := 0; y < 8; y++ {
					for x := 0; x < 8; x++ {
						r, g, b, _ := s.Img.At(bx+x, by+y).RGBA()
						yy, cb, cr := color.RGBToYCbCr(uint8(r>>8), uint8(g>>8), uint8(b>>8))
						planes[0][y*8+x] = float64(yy) - 128
						planes[1][y*8+x] = float64(cb) - 128
						planes[2][y*8+x] = float64(cr) - 128
					}
				}
				for c := range planes {
					fdctMatches(t, "synth block", &planes[c])
					blocks++
				}
			}
		}
	}
	if blocks == 0 {
		t.Fatal("synth set has no 8×8 blocks")
	}
}

func TestQuantizeMatchesReference(t *testing.T) {
	half := math.Nextafter(0.5, 0) // v+0.5 rounds up to 1; math.Round(v) is 0
	coefs := []float64{0, math.Copysign(0, -1), half, -half, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5,
		math.Nextafter(2.5, 3), math.Nextafter(-2.5, -3), 1 << 52, -(1 << 52), 1<<52 + 1, 4503599627370497.5}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		coefs = append(coefs, rng.NormFloat64()*float64(rng.Intn(2000)), float64(rng.Intn(4096)-2048)+0.5)
	}
	for _, step := range []uint16{1, 2, 3, 7, 16, 99, 255} {
		for _, c := range coefs {
			c := c * float64(step)
			if got, want := quantize(c, step), referenceQuantize(c, step); got != want {
				t.Fatalf("quantize(%v, %d) = %d, reference %d", c, step, got, want)
			}
		}
	}
}

func optimalMatches(t *testing.T, what string, f *freqCounter) {
	t.Helper()
	got, want := f.buildOptimal(), referenceBuildOptimal(f)
	if got.bits != want.bits || !bytes.Equal(got.vals, want.vals) {
		t.Fatalf("%s: table bits %v vals %v, reference bits %v vals %v", what, got.bits, got.vals, want.bits, want.vals)
	}
}

func TestBuildOptimalMatchesReference(t *testing.T) {
	var empty freqCounter
	optimalMatches(t, "no symbols", &empty)
	for _, sym := range []int{0, 1, 0x42, 255} {
		var one freqCounter
		one[sym] = 17
		optimalMatches(t, "one symbol", &one)
	}
	var all, flat freqCounter
	for i := 0; i < 256; i++ {
		all[i] = int64(i*i + 1)
		flat[i] = 5
	}
	optimalMatches(t, "all 256 symbols", &all)
	optimalMatches(t, "all 256 symbols, equal counts", &flat)
	// Fibonacci counts build the deepest tree, forcing the 16-bit limit.
	var fib freqCounter
	a, b := int64(1), int64(1)
	for i := 0; i < 40; i++ {
		fib[i*6] = a
		a, b = b, a+b
	}
	optimalMatches(t, "fibonacci counts", &fib)

	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		var f freqCounter
		switch trial % 3 {
		case 0: // dense
			for i := 0; i < 256; i++ {
				f[i] = int64(rng.Intn(1000))
			}
		case 1: // sparse, with ties
			for n := rng.Intn(12) + 1; n > 0; n-- {
				f[rng.Intn(256)] = int64(rng.Intn(4) + 1)
			}
		case 2: // skewed, like real AC statistics
			for n := rng.Intn(160) + 1; n > 0; n-- {
				f[rng.Intn(256)] += int64(rng.ExpFloat64() * 1e4)
			}
		}
		optimalMatches(t, "random counts", &f)
	}
}

func TestEncodeProgressiveEqualsTranscode(t *testing.T) {
	cases := []struct {
		name string
		img  image.Image
		opts Options
	}{
		{"color-420", testImage(64, 64, 1), Options{Quality: 84, Subsample420: true}},
		{"color-420-odd", testImage(37, 23, 2), Options{Quality: 60, Subsample420: true}},
		{"color-444", testImage(48, 40, 3), Options{Quality: 90}},
		{"color-444-odd", testImage(37, 23, 4), Options{Quality: 75}},
		{"gray", testGray(64, 48, 5), Options{Quality: 84}},
		{"gray-odd", testGray(37, 23, 6), Options{Quality: 50}},
		{"grayscale-option", testImage(40, 40, 7), Options{Quality: 80, Grayscale: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, err := Encode(tc.img, &tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Transcode(base, &Options{Progressive: true})
			if err != nil {
				t.Fatal(err)
			}
			popts := tc.opts
			popts.Progressive = true
			got, err := Encode(tc.img, &popts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("direct progressive encode (%d B) differs from transcoded baseline (%d B)", len(got), len(want))
			}
		})
	}
}

// atOnly hides an image's concrete type, so Analyze reads it through At.
type atOnly struct{ image.Image }

func TestAnalyzeRGBAFastPathMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	translucent := image.NewRGBA(image.Rect(0, 0, 37, 23))
	rng.Read(translucent.Pix) // arbitrary bytes, alpha < 255 included
	offset := image.NewRGBA(image.Rect(-5, 7, 40, 50))
	rng.Read(offset.Pix)
	imgs := map[string]*image.RGBA{
		"64x64":       testImage(64, 64, 1),
		"37x23":       testImage(37, 23, 2),
		"translucent": translucent,
		"subimage":    testImage(80, 72, 3).SubImage(image.Rect(13, 9, 50, 32)).(*image.RGBA),
		"negative":    offset.SubImage(image.Rect(-3, 10, 30, 41)).(*image.RGBA),
	}
	for name, img := range imgs {
		for _, opts := range []Options{
			{Quality: 84, Subsample420: true},
			{Quality: 70},
			{Quality: 90, Grayscale: true},
		} {
			got, err := Analyze(img, &opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Analyze(atOnly{img}, &opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s %+v: RGBA fast path differs from the At path", name, opts)
			}
		}
	}
	img := imgs["64x64"]
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Analyze(img, &Options{Quality: 84, Subsample420: true}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("Analyze of a 64×64 RGBA image made %v allocations: the fast path boxes pixels", allocs)
	}
}

func TestDestuffMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabet := []byte{0x00, 0x01, 0xD9, 0xC4, 0xFF, 0xFF, 0xFF}
	for trial := 0; trial < 20000; trial++ {
		data := make([]byte, rng.Intn(24))
		for i := range data {
			data[i] = alphabet[rng.Intn(len(alphabet))]
		}
		got, n := destuff(data)
		want, wantN := referenceDestuff(data)
		if n != wantN || !bytes.Equal(got, want) || entropyLen(data) != wantN {
			t.Fatalf("destuff(% x) = % x, %d (entropyLen %d); reference % x, %d",
				data, got, n, entropyLen(data), want, wantN)
		}
	}
}

// TestBitWriterMatchesBitByBit checks the word-at-a-time bitWriter against
// packing the same bits one at a time, with the runs of ones that produce
// 0xFF bytes and so stuff bytes.
func TestBitWriterMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 500; trial++ {
		var buf bytes.Buffer
		w := newBitWriter(&buf)
		var bitsOut []byte
		for i := rng.Intn(200); i > 0; i-- {
			n := uint(rng.Intn(33))
			v := rng.Uint32()
			if rng.Intn(2) == 0 {
				v = ^uint32(0) // all ones: 0xFF bytes
			}
			w.writeBits(v, n)
			for b := int(n) - 1; b >= 0; b-- {
				bitsOut = append(bitsOut, byte(v>>b&1))
			}
		}
		w.flush()
		for len(bitsOut)%8 != 0 {
			bitsOut = append(bitsOut, 1)
		}
		var want []byte
		for i := 0; i < len(bitsOut); i += 8 {
			var b byte
			for _, bit := range bitsOut[i : i+8] {
				b = b<<1 | bit
			}
			want = append(want, b)
			if b == 0xFF {
				want = append(want, 0x00)
			}
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("trial %d: wrote % x, want % x", trial, buf.Bytes(), want)
		}
	}
}
