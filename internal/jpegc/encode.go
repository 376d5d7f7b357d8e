package jpegc

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"math"
)

// Options control encoding.
type Options struct {
	// Quality is the JPEG quality setting in [1, 100]; 0 means 75.
	Quality int
	// Progressive selects progressive (SOF2) encoding with ScanScript (or
	// the default script when nil). False produces a baseline (SOF0) stream.
	Progressive bool
	// ScanScript overrides the progressive scan script.
	ScanScript []ScanSpec
	// Grayscale forces single-component encoding even for color inputs.
	Grayscale bool
	// Subsample420 encodes color images with 4:2:0 chroma subsampling
	// (the convention of virtually all photographic JPEG). Ignored for
	// grayscale.
	Subsample420 bool
	// OptimizeHuffman computes optimal Huffman tables for baseline scans.
	// Progressive scans always use optimized tables (the Annex K defaults
	// lack the EOBn symbols progressive coding requires).
	OptimizeHuffman bool
}

func (o *Options) quality() int {
	if o == nil || o.Quality == 0 {
		return 75
	}
	return o.Quality
}

// Analyze converts an image into its quantized DCT coefficient
// representation at the requested quality. This is the lossy step; all
// entropy-coding paths (baseline, progressive) below it are lossless.
func Analyze(img image.Image, opts *Options) (*CoeffImage, error) {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("jpegc: empty image")
	}
	gray := false
	if opts != nil && opts.Grayscale {
		gray = true
	}
	if _, ok := img.(*image.Gray); ok {
		gray = true
	}

	luma, chroma := QuantTables(opts.quality())
	ci := &CoeffImage{Width: w, Height: h}
	if gray {
		ci.NumComps = 1
	} else {
		ci.NumComps = 3
		ci.Subsample420 = opts != nil && opts.Subsample420
	}
	ci.Quant[0] = luma
	ci.Quant[1] = chroma

	// Extract full-resolution component planes.
	full := make([][]uint8, ci.NumComps)
	for c := range full {
		full[c] = make([]uint8, w*h)
	}
	// An *image.RGBA's pixels are read straight from Pix: At would box
	// every pixel, and its RGBA values shifted back to 8 bits are exactly
	// the stored bytes (alpha is ignored either way).
	rgba, direct := img.(*image.RGBA)
	for y := 0; y < h; y++ {
		var row []uint8
		if direct {
			i := rgba.PixOffset(b.Min.X, b.Min.Y+y)
			row = rgba.Pix[i : i+4*w]
		}
		for x := 0; x < w; x++ {
			var r8, g8, b8 uint8
			if direct {
				p := row[4*x : 4*x+3 : 4*x+3]
				r8, g8, b8 = p[0], p[1], p[2]
			} else {
				r, g, bb, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
				r8, g8, b8 = uint8(r>>8), uint8(g>>8), uint8(bb>>8)
			}
			i := y*w + x
			if gray {
				full[0][i] = color.GrayModel.Convert(color.RGBA{r8, g8, b8, 255}).(color.Gray).Y
			} else {
				full[0][i], full[1][i], full[2][i] = color.RGBToYCbCr(r8, g8, b8)
			}
		}
	}

	for c := 0; c < ci.NumComps; c++ {
		quant := &ci.Quant[0]
		if c > 0 {
			quant = &ci.Quant[1]
		}
		// Component plane at its sampled resolution, edge-replicated to
		// block boundaries. Chroma under 4:2:0 is a 2×2 box average.
		cw, ch := ci.compSize(c)
		bw, bh := ci.CompBlocksWide(c), ci.CompBlocksHigh(c)
		pw, ph := bw*8, bh*8
		plane := make([]uint8, pw*ph)
		sub := ci.Subsample420 && c > 0
		src := full[c]
		for y := 0; y < ch; y++ {
			row := plane[y*pw : (y+1)*pw]
			if sub {
				y0 := 2 * y
				y1 := min(y0+1, h-1)
				r0, r1 := src[y0*w:(y0+1)*w], src[y1*w:(y1+1)*w]
				for x := range cw {
					x0 := 2 * x
					x1 := min(x0+1, w-1)
					sum := int(r0[x0]) + int(r0[x1]) + int(r1[x0]) + int(r1[x1])
					row[x] = uint8((sum + 2) / 4)
				}
			} else {
				copy(row, src[y*w:y*w+cw])
			}
			for x := cw; x < pw; x++ {
				row[x] = row[cw-1]
			}
		}
		for y := ch; y < ph; y++ {
			copy(plane[y*pw:(y+1)*pw], plane[(ch-1)*pw:ch*pw])
		}

		ci.Blocks[c] = make([]Block, bw*bh)
		var fb [64]float64
		for by := 0; by < bh; by++ {
			for bx := 0; bx < bw; bx++ {
				for y := 0; y < 8; y++ {
					px := plane[(by*8+y)*pw+bx*8:][:8]
					for x, p := range px {
						fb[y*8+x] = float64(p) - 128
					}
				}
				fdct(&fb)
				blk := &ci.Blocks[c][by*bw+bx]
				for k := 0; k < 64; k++ {
					blk[k] = quantize(fb[k], quant[k])
				}
			}
		}
	}
	return ci, nil
}

// quantize divides a DCT coefficient by its quantizer step and rounds to
// nearest, ties away from zero, without a branch: it truncates v+0.5 for
// v >= 0 and v-0.5 below, so the float addition rounds near-ties exactly
// as the branching form does.
func quantize(coef float64, step uint16) int32 {
	v := coef / float64(step)
	return int32(v + math.Copysign(0.5, v))
}

// Encode compresses img with the given options and returns the JPEG stream.
func Encode(img image.Image, opts *Options) ([]byte, error) {
	ci, err := Analyze(img, opts)
	if err != nil {
		return nil, err
	}
	return EncodeCoeffs(ci, opts)
}

// EncodeCoeffs entropy-codes an existing coefficient image. This is the
// lossless half of the codec: EncodeCoeffs followed by DecodeCoeffs returns
// an identical CoeffImage regardless of baseline/progressive mode.
func EncodeCoeffs(ci *CoeffImage, opts *Options) ([]byte, error) {
	if err := ci.validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	writeHeaders(&buf, ci, opts)
	e := encoder{ci: ci}
	if opts != nil && opts.Progressive {
		script := opts.ScanScript
		if script == nil {
			script = DefaultScanScript(ci.NumComps)
		}
		if err := validateScript(script, ci.NumComps); err != nil {
			return nil, err
		}
		for _, scan := range script {
			if err := e.writeProgressiveScan(&buf, scan); err != nil {
				return nil, err
			}
		}
	} else {
		optimize := opts != nil && opts.OptimizeHuffman
		if err := e.writeBaselineScan(&buf, optimize); err != nil {
			return nil, err
		}
	}
	buf.Write([]byte{0xFF, mEOI})
	return buf.Bytes(), nil
}

func writeSegment(buf *bytes.Buffer, marker byte, payload []byte) {
	buf.WriteByte(0xFF)
	buf.WriteByte(marker)
	n := len(payload) + 2
	buf.WriteByte(byte(n >> 8))
	buf.WriteByte(byte(n))
	buf.Write(payload)
}

func writeHeaders(buf *bytes.Buffer, ci *CoeffImage, opts *Options) {
	buf.Write([]byte{0xFF, mSOI})

	// JFIF APP0.
	writeSegment(buf, mAPP0, []byte{'J', 'F', 'I', 'F', 0, 1, 2, 0, 0, 1, 0, 1, 0, 0})

	// DQT: table 0 (luma), and table 1 (chroma) for color.
	nq := 1
	if ci.NumComps == 3 {
		nq = 2
	}
	for t := 0; t < nq; t++ {
		payload := make([]byte, 1+64)
		payload[0] = byte(t) // 8-bit precision, table id t
		for zz := 0; zz < 64; zz++ {
			payload[1+zz] = byte(ci.Quant[t][zigzag[zz]])
		}
		writeSegment(buf, mDQT, payload)
	}

	// SOF0 or SOF2.
	sof := byte(mSOF0)
	if opts != nil && opts.Progressive {
		sof = mSOF2
	}
	payload := make([]byte, 6+3*ci.NumComps)
	payload[0] = 8 // precision
	payload[1] = byte(ci.Height >> 8)
	payload[2] = byte(ci.Height)
	payload[3] = byte(ci.Width >> 8)
	payload[4] = byte(ci.Width)
	payload[5] = byte(ci.NumComps)
	ids := [3]byte{compY, compCb, compCr}
	for c := 0; c < ci.NumComps; c++ {
		payload[6+3*c] = ids[c]
		h, v := ci.sampling(c)
		payload[7+3*c] = byte(h)<<4 | byte(v)
		qt := byte(0)
		if c > 0 {
			qt = 1
		}
		payload[8+3*c] = qt
	}
	writeSegment(buf, sof, payload)
}

// writeDHT emits one or more Huffman tables in a single DHT segment.
// class 0 = DC, 1 = AC; id is the table slot.
type dhtEntry struct {
	class, id byte
	spec      *huffSpec
}

func writeDHT(buf *bytes.Buffer, entries []dhtEntry) {
	var payload []byte
	for _, e := range entries {
		payload = append(payload, e.class<<4|e.id)
		payload = append(payload, e.spec.bits[:]...)
		payload = append(payload, e.spec.vals...)
	}
	writeSegment(buf, mDHT, payload)
}

// writeSOS emits the scan header for the given scan spec. A component's
// DC (AC) table id is its tableSlot when dc (ac) is set, and 0 otherwise.
func writeSOS(buf *bytes.Buffer, scan ScanSpec, dc, ac bool) {
	ids := [3]byte{compY, compCb, compCr}
	payload := make([]byte, 0, 4+2*len(scan.Comps))
	payload = append(payload, byte(len(scan.Comps)))
	for _, c := range scan.Comps {
		var tables byte
		if dc {
			tables |= byte(tableSlot(c)) << 4
		}
		if ac {
			tables |= byte(tableSlot(c))
		}
		payload = append(payload, ids[c], tables)
	}
	payload = append(payload, byte(scan.Ss), byte(scan.Se), byte(scan.Ah<<4|scan.Al))
	writeSegment(buf, mSOS, payload)
}

// --- Scan coding -----------------------------------------------------------

// Huffman table indices of a token: the DC and AC tables of the luma (slot
// 0) and chroma (slot 1) components.
const (
	dcTable = 0 // + tableSlot(comp)
	acTable = 2 // + tableSlot(comp)
)

// tableSlot maps a component to its Huffman table slot: luma uses slot 0,
// chroma slot 1.
func tableSlot(comp int) int {
	if comp > 0 {
		return 1
	}
	return 0
}

// A token is one entropy-coding event of a scan: a Huffman symbol through
// one of the four tables followed by up to 16 raw bits, or raw bits alone.
// Bits 0-15 hold the raw bits, 16-20 their count, 21-28 the symbol, 29-30
// the table, and bit 31 marks a symbol.
type token uint32

const tokSymbol token = 1 << 31

// encoder entropy-codes one coefficient image. Each scan is walked once:
// the walk counts every Huffman symbol and records it, with the raw bits
// that follow it, as a token. The scan's optimal tables are then built from
// the counts and the tokens emitted. The buffers are reused across scans.
type encoder struct {
	ci    *CoeffImage
	freq  [4]freqCounter // symbol counts per table
	huff  [4]huffEncoder // codes per table
	toks  []token
	order []mcuBlock
	// nonzero caches nonzeroMasks per component.
	nonzero [3][]uint64
	// eobrun is a progressive AC scan's pending end-of-band run, and carry
	// the refinement correction bits that follow its symbol. Each AC walk
	// ends by flushing both.
	eobrun int
	carry  []byte
}

// begin resets the per-scan state.
func (e *encoder) begin() {
	e.freq = [4]freqCounter{}
	e.toks = e.toks[:0]
}

// symbol records Huffman symbol sym through table tab, followed by the low
// n bits of v.
func (e *encoder) symbol(tab int, sym byte, v uint32, n uint) {
	e.freq[tab].count(sym)
	e.toks = append(e.toks, tokSymbol|token(tab)<<29|token(sym)<<21|token(n)<<16|token(v))
}

// rawBits records raw bits, one per entry of bs, 16 to a token.
func (e *encoder) rawBits(bs []byte) {
	for len(bs) > 0 {
		n := min(len(bs), 16)
		var v token
		for _, b := range bs[:n] {
			v = v<<1 | token(b)
		}
		e.toks = append(e.toks, token(n)<<16|v)
		bs = bs[n:]
	}
}

// setTable makes spec the code of table tab and appends its DHT entry,
// under DHT class class, to dht.
func (e *encoder) setTable(dht []dhtEntry, class, tab int, spec *huffSpec) ([]dhtEntry, error) {
	if err := e.huff[tab].build(spec); err != nil {
		return nil, err
	}
	return append(dht, dhtEntry{byte(class), byte(tab % 2), spec}), nil
}

// emit writes the recorded tokens as entropy-coded data.
func (e *encoder) emit(buf *bytes.Buffer) {
	w := newBitWriter(buf)
	for _, tk := range e.toks {
		v, n := uint32(tk&0xFFFF), uint(tk>>16&0x1F)
		if tk&tokSymbol != 0 {
			e.huff[tk>>29&3].emit(w, byte(tk>>21), v, n)
		} else {
			w.writeBits(v, n)
		}
	}
	w.flush()
}

// --- Baseline scan ---------------------------------------------------------

// walkBaseline records a full baseline scan in interleaved MCU order. MCU
// padding blocks (4:2:0 edges) re-emit the clamped edge block, keeping the
// DC prediction chain consistent with the decoder.
func (e *encoder) walkBaseline(comps []int) {
	var prevDC [3]int32
	e.order = e.ci.appendMCUOrder(e.order[:0], comps)
	for _, b := range e.order {
		c := int(b.comp)
		t := tableSlot(c)
		blk := &e.ci.Blocks[c][b.idx]
		// DC
		diff := blk[0] - prevDC[c]
		prevDC[c] = blk[0]
		size, bits := magnitude(diff)
		e.symbol(dcTable+t, byte(size), bits, size)
		// AC with run-length coding
		run := 0
		for zz := 1; zz < 64; zz++ {
			v := blk[zigzag[zz]]
			if v == 0 {
				run++
				continue
			}
			for run > 15 {
				e.symbol(acTable+t, 0xF0, 0, 0) // ZRL
				run -= 16
			}
			size, bits := magnitude(v)
			e.symbol(acTable+t, byte(run<<4)|byte(size), bits, size)
			run = 0
		}
		if run > 0 {
			e.symbol(acTable+t, 0x00, 0, 0) // EOB
		}
	}
}

func (e *encoder) writeBaselineScan(buf *bytes.Buffer, optimize bool) error {
	ci := e.ci
	comps := make([]int, ci.NumComps)
	for c := range comps {
		comps[c] = c
	}
	e.begin()
	e.walkBaseline(comps)

	var dht []dhtEntry
	var err error
	for t := range min(ci.NumComps, 2) {
		dc, ac := &stdDCLuma, &stdACLuma
		if t > 0 {
			dc, ac = &stdDCChroma, &stdACChroma
		}
		if optimize {
			dc, ac = e.freq[dcTable+t].buildOptimal(), e.freq[acTable+t].buildOptimal()
		}
		if dht, err = e.setTable(dht, 0, dcTable+t, dc); err != nil {
			return err
		}
		if dht, err = e.setTable(dht, 1, acTable+t, ac); err != nil {
			return err
		}
	}
	writeDHT(buf, dht)
	writeSOS(buf, ScanSpec{Comps: comps, Ss: 0, Se: 63}, true, true)
	e.emit(buf)
	return nil
}
