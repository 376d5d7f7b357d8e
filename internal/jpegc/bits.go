package jpegc

import "bytes"

// bitWriter emits an MSB-first bit stream with JPEG byte stuffing: every
// 0xFF data byte is followed by a 0x00 stuff byte so decoders can
// distinguish entropy-coded data from markers.
type bitWriter struct {
	buf  *bytes.Buffer
	acc  uint64 // pending bits, right-aligned: the low nbit bits
	nbit uint   // number of pending bits in acc, always < 32 between calls
}

func newBitWriter(buf *bytes.Buffer) *bitWriter {
	return &bitWriter{buf: buf}
}

// writeBits appends the low n bits of v, most significant first. n may be
// 0 and at most 32.
func (w *bitWriter) writeBits(v uint32, n uint) {
	w.acc = w.acc<<n | uint64(v)&(1<<n-1)
	w.nbit += n
	if w.nbit < 32 {
		return
	}
	// Emit the oldest 32 pending bits, four bytes at a time unless one of
	// them is 0xFF and needs a stuff byte.
	w.nbit -= 32
	x := uint32(w.acc >> w.nbit)
	if y := ^x; (y-0x01010101)&^y&0x80808080 == 0 {
		w.buf.Write([]byte{byte(x >> 24), byte(x >> 16), byte(x >> 8), byte(x)})
		return
	}
	for shift := 24; shift >= 0; shift -= 8 {
		w.writeByte(byte(x >> shift))
	}
}

// writeByte emits one byte of entropy-coded data, stuffed.
func (w *bitWriter) writeByte(b byte) {
	w.buf.WriteByte(b)
	if b == 0xFF {
		w.buf.WriteByte(0x00)
	}
}

// flush emits the pending bits, padding the final partial byte with 1 bits
// (the JPEG convention).
func (w *bitWriter) flush() {
	if pad := (8 - w.nbit%8) % 8; pad > 0 {
		w.acc = w.acc<<pad | (1<<pad - 1)
		w.nbit += pad
	}
	for w.nbit > 0 {
		w.nbit -= 8
		w.writeByte(byte(w.acc >> w.nbit))
	}
}

// bitReader consumes an MSB-first bit stream from de-stuffed entropy-coded
// data. It reports exhaustion via ok=false rather than error values so the
// hot decode loop stays branch-light; callers check err() once per scan.
type bitReader struct {
	data []byte
	pos  int
	acc  uint32
	nbit uint
	eof  bool
}

func newBitReader(data []byte) *bitReader {
	return &bitReader{data: data}
}

func (r *bitReader) fill() {
	for r.nbit <= 24 {
		if r.pos >= len(r.data) {
			// Past the end of the scan: feed zero bits. JPEG decoders
			// conventionally tolerate this (libjpeg inserts 1-bits; zeros
			// are equally safe for our own well-formed streams, where the
			// only bits read past the payload are flush padding).
			r.eof = true
			r.acc <<= 8
			r.nbit += 8
			continue
		}
		r.acc = (r.acc << 8) | uint32(r.data[r.pos])
		r.pos++
		r.nbit += 8
	}
}

// readBit returns the next bit.
func (r *bitReader) readBit() uint32 {
	return r.readBits(1)
}

// readBits returns the next n bits MSB-first. n must be ≤ 16.
func (r *bitReader) readBits(n uint) uint32 {
	if n == 0 {
		return 0
	}
	if r.nbit < n {
		r.fill()
	}
	v := (r.acc >> (r.nbit - n)) & ((1 << n) - 1)
	r.nbit -= n
	return v
}

// overrun reports whether the reader was asked for bits beyond the payload.
func (r *bitReader) overrun() bool { return r.eof }

// entropyLen returns the length of the entropy-coded segment data starts
// with: the bytes up to (not including) the next marker, which is 0xFF
// followed by neither a 0x00 stuff byte nor another 0xFF fill byte. A
// trailing 0xFF with nothing after it ends the segment too.
func entropyLen(data []byte) int {
	i := 0
	for {
		j := bytes.IndexByte(data[i:], 0xFF)
		if j < 0 {
			return len(data)
		}
		i += j
		if i+1 >= len(data) {
			return i
		}
		switch data[i+1] {
		case 0x00:
			i += 2
		case 0xFF:
			i++ // fill byte; re-examine the next one
		default:
			return i
		}
	}
}

// destuff removes 0x00 stuff bytes that follow 0xFF in entropy-coded data.
// It stops at a marker (0xFF followed by a non-zero byte) and returns the
// de-stuffed payload plus the number of input bytes consumed up to (not
// including) the marker.
func destuff(data []byte) (payload []byte, consumed int) {
	n := entropyLen(data)
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		b := data[i]
		if b == 0xFF {
			// Within the segment every 0xFF is followed by a stuff byte
			// or by another 0xFF, making this one a fill byte.
			if data[i+1] == 0xFF {
				continue
			}
			i++
		}
		out = append(out, b)
	}
	return out, n
}
