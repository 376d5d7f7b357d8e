package jpegc

import "fmt"

// huffSpec is a Huffman table in the DHT wire representation: bits[l] is the
// number of codes of length l+1 (l in 0..15) and vals lists the symbols in
// code order.
type huffSpec struct {
	bits [16]byte
	vals []byte
}

// huffEncoder holds per-symbol code words derived from a huffSpec.
type huffEncoder struct {
	code [256]uint32
	size [256]uint8 // 0 means the symbol has no code
}

// build assigns canonical codes (T.81 Annex C) to the spec's symbols,
// replacing whatever table enc held.
func (enc *huffEncoder) build(spec *huffSpec) error {
	*enc = huffEncoder{}
	code := uint32(0)
	k := 0
	for l := 1; l <= 16; l++ {
		n := int(spec.bits[l-1])
		for i := 0; i < n; i++ {
			if k >= len(spec.vals) {
				return fmt.Errorf("jpegc: huffman spec has %d codes but %d symbols", k+1, len(spec.vals))
			}
			sym := spec.vals[k]
			if enc.size[sym] != 0 {
				return fmt.Errorf("jpegc: duplicate huffman symbol %#x", sym)
			}
			enc.code[sym] = code
			enc.size[sym] = uint8(l)
			code++
			k++
		}
		code <<= 1
	}
	if k != len(spec.vals) {
		return fmt.Errorf("jpegc: huffman spec has %d codes but %d symbols", k, len(spec.vals))
	}
	return nil
}

// emit writes the code for sym to w, followed by the low n ≤ 16 bits of v.
// Panics if the symbol has no code — the encoder only emits symbols whose
// frequencies it counted, so a missing code is an internal invariant
// violation, not an input error.
func (e *huffEncoder) emit(w *bitWriter, sym byte, v uint32, n uint) {
	sz := e.size[sym]
	if sz == 0 {
		panic(fmt.Sprintf("jpegc: no huffman code for symbol %#x", sym))
	}
	w.writeBits(e.code[sym]<<n|v, uint(sz)+n)
}

// huffDecoder implements the canonical MINCODE/MAXCODE/VALPTR decoding
// procedure from T.81 Annex F.2.2.3.
type huffDecoder struct {
	mincode [17]int32
	maxcode [17]int32 // -1 where no codes of that length exist
	valptr  [17]int32
	vals    []byte
}

func buildDecoder(spec *huffSpec) (*huffDecoder, error) {
	d := &huffDecoder{vals: spec.vals}
	code := int32(0)
	k := int32(0)
	total := 0
	for l := 1; l <= 16; l++ {
		n := int32(spec.bits[l-1])
		if n == 0 {
			d.maxcode[l] = -1
			code <<= 1
			continue
		}
		d.valptr[l] = k
		d.mincode[l] = code
		code += n
		k += n
		d.maxcode[l] = code - 1
		code <<= 1
		total += int(n)
	}
	if total != len(spec.vals) {
		return nil, fmt.Errorf("jpegc: huffman table: %d codes but %d symbols", total, len(spec.vals))
	}
	return d, nil
}

// decode reads one Huffman-coded symbol from r.
func (d *huffDecoder) decode(r *bitReader) (byte, error) {
	code := int32(r.readBit())
	for l := 1; l <= 16; l++ {
		if d.maxcode[l] >= 0 && code <= d.maxcode[l] {
			idx := d.valptr[l] + code - d.mincode[l]
			if idx < 0 || int(idx) >= len(d.vals) {
				return 0, fmt.Errorf("jpegc: corrupt huffman code")
			}
			return d.vals[idx], nil
		}
		code = code<<1 | int32(r.readBit())
	}
	return 0, fmt.Errorf("jpegc: huffman code longer than 16 bits")
}

// freqCounter accumulates symbol frequencies for optimal table generation.
// Index 256 is a reserved pseudo-symbol that guarantees no real symbol is
// assigned the all-ones code (required by JPEG).
type freqCounter [257]int64

func (f *freqCounter) count(sym byte) { f[sym]++ }

// buildOptimal computes an optimal length-limited Huffman table for the
// counted frequencies, following the algorithm of ISO/libjpeg
// (jpeg_gen_optimal_table): pair-merge to get code sizes, then push sizes
// over 16 back down, then drop the reserved symbol.
func (f *freqCounter) buildOptimal() *huffSpec {
	var freq [257]int64
	copy(freq[:], f[:])
	freq[256] = 1 // reserved: ensures no real all-ones code

	var codesize [257]int
	var others [257]int
	// live lists the symbols whose frequency is still nonzero, in
	// increasing order; merging removes c2 from it.
	var liveBuf [257]uint16
	live := liveBuf[:0]
	for i := range others {
		others[i] = -1
		if freq[i] != 0 {
			live = append(live, uint16(i))
		}
	}

	for len(live) > 1 {
		// Find the two least-frequent entries (c1 lowest, c2 next; ties
		// broken toward larger symbol value per libjpeg). One ascending
		// pass suffices: a new minimum demotes the old one to c2.
		c1, at1, c2, at2 := -1, -1, -1, -1
		v1, v2 := int64(1)<<62, int64(1)<<62
		for k, sym := range live {
			if fi := freq[sym]; fi <= v1 {
				c2, at2, v2 = c1, at1, v1
				c1, at1, v1 = int(sym), k, fi
			} else if fi <= v2 {
				c2, at2, v2 = int(sym), k, fi
			}
		}
		freq[c1] += freq[c2]
		live = append(live[:at2], live[at2+1:]...)
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
				// Cannot occur with ≤257 symbols, but guard anyway.
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
	// List symbols in increasing code-length order, breaking ties by value:
	// a counting sort on code length, stable in symbol order.
	var next [33]int
	for _, size := range codesize[:256] {
		if size > 0 {
			next[size]++
		}
	}
	n := 0
	for size, k := range next {
		next[size] = n
		n += k
	}
	spec.vals = make([]byte, n)
	for sym, size := range codesize[:256] {
		if size > 0 {
			spec.vals[next[size]] = byte(sym)
			next[size]++
		}
	}
	return spec
}

// Standard Huffman tables from T.81 Annex K.3 (used for baseline scans when
// optimization is disabled).
var (
	stdDCLuma = huffSpec{
		bits: [16]byte{0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0},
		vals: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	}
	stdDCChroma = huffSpec{
		bits: [16]byte{0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0},
		vals: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	}
	stdACLuma = huffSpec{
		bits: [16]byte{0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7d},
		vals: []byte{
			0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
			0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
			0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08,
			0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52, 0xd1, 0xf0,
			0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0a, 0x16,
			0x17, 0x18, 0x19, 0x1a, 0x25, 0x26, 0x27, 0x28,
			0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
			0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
			0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
			0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
			0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
			0x7a, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
			0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
			0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7,
			0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6,
			0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5,
			0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2, 0xd3, 0xd4,
			0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1, 0xe2,
			0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea,
			0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8,
			0xf9, 0xfa,
		},
	}
	stdACChroma = huffSpec{
		bits: [16]byte{0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77},
		vals: []byte{
			0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
			0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
			0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
			0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33, 0x52, 0xf0,
			0x15, 0x62, 0x72, 0xd1, 0x0a, 0x16, 0x24, 0x34,
			0xe1, 0x25, 0xf1, 0x17, 0x18, 0x19, 0x1a, 0x26,
			0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37, 0x38,
			0x39, 0x3a, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
			0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
			0x59, 0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
			0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
			0x79, 0x7a, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
			0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96,
			0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5,
			0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4,
			0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3,
			0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2,
			0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda,
			0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9,
			0xea, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8,
			0xf9, 0xfa,
		},
	}
)

// magnitude returns the JPEG "size" category of v (number of bits needed for
// |v|) and the value bits to emit after the size symbol.
func magnitude(v int32) (size uint, bits uint32) {
	a := v
	if a < 0 {
		a = -a
	}
	for a != 0 {
		size++
		a >>= 1
	}
	if v >= 0 {
		return size, uint32(v)
	}
	// Negative values are emitted as v-1 in size bits (ones' complement of
	// the magnitude).
	return size, uint32(v-1) & ((1 << size) - 1)
}

// extend implements the EXTEND procedure (T.81 F.2.2.1): it converts the raw
// value bits of a size-s coefficient into a signed value.
func extend(bits uint32, size uint) int32 {
	if size == 0 {
		return 0
	}
	if bits < 1<<(size-1) {
		return int32(bits) - (1 << size) + 1
	}
	return int32(bits)
}
