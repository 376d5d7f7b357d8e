package jpegc

import (
	"bytes"
	"math/bits"
)

// maxCorrBits bounds the buffered AC-refinement correction bits attached to
// a pending EOB run (libjpeg's MAX_CORR_BITS safeguard).
const maxCorrBits = 937

// writeProgressiveScan emits the DHT (when Huffman tables are needed), SOS
// header, and entropy-coded data for one scan of the script.
func (e *encoder) writeProgressiveScan(buf *bytes.Buffer, scan ScanSpec) error {
	e.begin()
	isDC := scan.isDC()
	switch {
	case isDC && scan.Ah == 0:
		e.walkDCFirst(scan)
	case isDC:
		e.walkDCRefine(scan)
	case scan.Ah == 0:
		e.walkACFirst(scan)
	default:
		e.walkACRefine(scan)
	}

	// A DC refinement scan codes raw bits only and needs no tables.
	dcRefine := isDC && scan.Ah > 0
	if !dcRefine {
		class, base := 1, acTable
		if isDC {
			class, base = 0, dcTable
		}
		var used [2]bool
		for _, c := range scan.Comps {
			used[tableSlot(c)] = true
		}
		var dht []dhtEntry
		var err error
		for t := 0; t < 2; t++ {
			if !used[t] {
				continue
			}
			if dht, err = e.setTable(dht, class, base+t, e.freq[base+t].buildOptimal()); err != nil {
				return err
			}
		}
		writeDHT(buf, dht)
	}
	writeSOS(buf, scan, isDC && !dcRefine, !isDC)
	e.emit(buf)
	return nil
}

// walkDCFirst codes the DC band's first pass: difference coding of
// point-transformed DC values in interleaved MCU order.
func (e *encoder) walkDCFirst(scan ScanSpec) {
	var prevDC [3]int32
	e.order = e.ci.appendMCUOrder(e.order[:0], scan.Comps)
	for _, b := range e.order {
		c := int(b.comp)
		v := e.ci.Blocks[c][b.idx][0] >> uint(scan.Al)
		diff := v - prevDC[c]
		prevDC[c] = v
		size, raw := magnitude(diff)
		e.symbol(dcTable+tableSlot(c), byte(size), raw, size)
	}
}

// walkDCRefine codes a DC refinement pass: one raw bit per block.
func (e *encoder) walkDCRefine(scan ScanSpec) {
	e.order = e.ci.appendMCUOrder(e.order[:0], scan.Comps)
	for _, b := range e.order {
		v := e.ci.Blocks[b.comp][b.idx][0] >> uint(scan.Al)
		e.rawBits([]byte{byte(v & 1)})
	}
}

// flushEOB records the pending EOB run, if any, and the correction bits
// that follow it.
func (e *encoder) flushEOB(tab int) {
	if e.eobrun == 0 {
		return
	}
	r := uint(bits.Len(uint(e.eobrun))) - 1
	e.symbol(tab, byte(r<<4), uint32(e.eobrun)-1<<r, r)
	e.eobrun = 0
	e.rawBits(e.carry)
	e.carry = e.carry[:0]
}

// nonzeroMasks returns, per block of component c, a mask with bit k set
// where zigzag coefficient k is nonzero. It is built once per image, on the
// component's first AC scan: the AC walks then visit only these
// coefficients, so the zeros that make up most of a band cost nothing.
func (e *encoder) nonzeroMasks(c int) []uint64 {
	if e.nonzero[c] == nil {
		blocks := e.ci.Blocks[c]
		masks := make([]uint64, len(blocks))
		for i := range blocks {
			blk := &blocks[i]
			var nz uint64
			for k, nat := range zigzag {
				v := blk[nat]
				nz |= uint64(uint32(v|-v)>>31) << k // sign bit of v|-v: v != 0
			}
			masks[i] = nz
		}
		e.nonzero[c] = masks
	}
	return e.nonzero[c]
}

// bandBits is the mask of zigzag positions ss through se.
func bandBits(ss, se int) uint64 {
	return (uint64(1)<<(se+1) - 1) &^ (uint64(1)<<ss - 1)
}

// bandMask returns, of the coefficients of blk flagged in cand, the mask
// of those whose magnitude after the point transform al is nonzero and the
// mask of those where it is exactly 1.
func bandMask(blk *Block, cand uint64, al uint) (nonzero, one uint64) {
	for ; cand != 0; cand &= cand - 1 {
		k := bits.TrailingZeros64(cand)
		a := pointMagnitude(blk[zigzag[k]], al)
		// Branch-free: the sign bit of -x is set exactly when x > 0, and
		// a and a^1 are never negative.
		nonzero |= uint64(uint32(-a)>>31) << k
		one |= uint64(uint32(-(a^1))>>31^1) << k
	}
	return nonzero, one
}

// pointMagnitude is |v| >> al.
func pointMagnitude(v int32, al uint) int32 {
	m := v >> 31 // 0 or -1
	return ((v ^ m) - m) >> al
}

// walkACFirst codes the first pass of an AC band: run-length coding of
// point-transformed coefficients with EOB-run aggregation across blocks.
func (e *encoder) walkACFirst(scan ScanSpec) {
	c := scan.Comps[0]
	t := acTable + tableSlot(c)
	al := uint(scan.Al)
	blocks, masks, band := e.ci.Blocks[c], e.nonzeroMasks(c), bandBits(scan.Ss, scan.Se)
	for i := range blocks {
		blk := &blocks[i]
		nz, _ := bandMask(blk, masks[i]&band, al)
		prev := scan.Ss - 1 // the last nonzero coefficient coded
		for ; nz != 0; nz &= nz - 1 {
			k := bits.TrailingZeros64(nz)
			r := k - prev - 1
			prev = k
			e.flushEOB(t)
			for r > 15 {
				e.symbol(t, 0xF0, 0, 0) // ZRL
				r -= 16
			}
			v := blk[zigzag[k]]
			sv := pointMagnitude(v, al)
			if v < 0 {
				sv = -sv
			}
			size, raw := magnitude(sv)
			e.symbol(t, byte(r<<4)|byte(size), raw, size)
		}
		if prev < scan.Se {
			e.eobrun++
			if e.eobrun == 0x7FFF {
				e.flushEOB(t)
			}
		}
	}
	e.flushEOB(t)
}

// walkACRefine codes an AC refinement pass, following the structure of
// libjpeg's encode_mcu_AC_refine: newly significant coefficients get
// run/size symbols, already-significant ones contribute buffered correction
// bits, and trailing zeros fold into a cross-block EOB run.
func (e *encoder) walkACRefine(scan ScanSpec) {
	c := scan.Comps[0]
	t := acTable + tableSlot(c)
	al := uint(scan.Al)
	var cur [64]byte // correction bits collected since the last symbol
	blocks, masks, band := e.ci.Blocks[c], e.nonzeroMasks(c), bandBits(scan.Ss, scan.Se)
	for i := range blocks {
		blk := &blocks[i]
		nz, one := bandMask(blk, masks[i]&band, al)
		// eob is the last newly significant coefficient, 0 if none.
		eob := 0
		if one != 0 {
			eob = 63 - bits.LeadingZeros64(one)
		}
		// r counts the zeros since the last newly significant coefficient;
		// already-significant ones do not interrupt the run.
		r, ncur, prev := 0, 0, scan.Ss-1
		for ; nz != 0; nz &= nz - 1 {
			k := bits.TrailingZeros64(nz)
			r += k - prev - 1
			prev = k
			for r > 15 && k <= eob {
				e.flushEOB(t)
				e.symbol(t, 0xF0, 0, 0)
				r -= 16
				e.rawBits(cur[:ncur])
				ncur = 0
			}
			v := blk[zigzag[k]]
			if a := pointMagnitude(v, al); a > 1 {
				// Already significant: queue its correction bit.
				cur[ncur] = byte(a & 1)
				ncur++
				continue
			}
			// Newly significant coefficient.
			e.flushEOB(t)
			sign := uint32(1)
			if v < 0 {
				sign = 0
			}
			e.symbol(t, byte(r<<4)|1, sign, 1)
			e.rawBits(cur[:ncur])
			ncur = 0
			r = 0
		}
		r += scan.Se - prev
		if r > 0 || ncur > 0 {
			e.eobrun++
			e.carry = append(e.carry, cur[:ncur]...)
			if e.eobrun == 0x7FFF || len(e.carry) > maxCorrBits {
				e.flushEOB(t)
			}
		}
	}
	e.flushEOB(t)
}
