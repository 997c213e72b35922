package jpeg

// DecodeBlocks entropy-decodes the quantized coefficient blocks from the
// bitstream.
func DecodeBlocks(res *Result) ([][dctSize2]int, error) {
	r := &bitReader{buf: res.Data}
	nBlocks := ((res.W + 7) / 8) * ((res.H + 7) / 8)
	out := make([][dctSize2]int, 0, nBlocks)
	lastDC := 0
	for i := 0; i < nBlocks; i++ {
		block, dc, err := decodeOneBlock(r, lastDC)
		if err != nil {
			return nil, err
		}
		lastDC = dc
		out = append(out, block)
	}
	return out, nil
}

// decodeOneBlock entropy-decodes one 8×8 block given the previous DC
// value, returning the block and the new DC predictor.
func decodeOneBlock(r *bitReader, lastDC int) ([dctSize2]int, int, error) {
	var block [dctSize2]int
	// DC.
	sym, err := r.decodeSymbol(dcTable)
	if err != nil {
		return block, 0, err
	}
	bits, err := r.readBits(sym)
	if err != nil {
		return block, 0, err
	}
	lastDC += extend(bits, sym)
	block[0] = lastDC
	// AC.
	k := 1
	for k < dctSize2 { //metalint:leaky out-of-model decode-side ground-truth tooling; consumes the victim's own bitstream
		sym, err := r.decodeSymbol(acTable)
		if err != nil {
			return block, 0, err
		}
		if sym == 0x00 { //metalint:leaky out-of-model EOB marker; decode-side ground-truth tooling on the victim's own bitstream
			break
		}
		run, size := int(sym>>4), sym&0xf
		if sym == 0xf0 { //metalint:leaky out-of-model ZRL marker; decode-side ground-truth tooling on the victim's own bitstream
			k += 16
			continue
		}
		k += run
		if k >= dctSize2 { //metalint:leaky out-of-model decode-side ground-truth tooling; consumes the victim's own bitstream
			break
		}
		bits, err := r.readBits(size)
		if err != nil {
			return block, 0, err
		}
		block[jpegNaturalOrder[k]] = extend(bits, size) //metalint:leaky out-of-model decode-side ground-truth tooling; consumes the victim's own bitstream
		k++
	}
	return block, lastDC, nil
}

// RenderBlocks dequantizes and inverse-transforms coefficient blocks into
// an image.
func RenderBlocks(blocks [][dctSize2]int, w, h, quality int) *Image {
	quant := QuantTable(quality)
	im := NewImage(w, h)
	bw := (w + 7) / 8
	for i, block := range blocks {
		bx, by := i%bw, i/bw
		var coefs [dctSize2]float64
		for j := 0; j < dctSize2; j++ {
			coefs[j] = float64(block[j] * quant[j])
		}
		samples := IDCT(&coefs)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				v := samples[y*8+x] + 128
				if v < 0 { //metalint:leaky out-of-model decode-side ground-truth tooling; consumes the victim's own bitstream
					v = 0
				}
				if v > 255 { //metalint:leaky out-of-model decode-side ground-truth tooling; consumes the victim's own bitstream
					v = 255
				}
				im.Set(bx*8+x, by*8+y, uint8(v))
			}
		}
	}
	return im
}
