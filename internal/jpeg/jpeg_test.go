package jpeg

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDCTInverts(t *testing.T) {
	f := func(raw [dctSize2]int8) bool {
		var in [dctSize2]float64
		for i, v := range raw {
			in[i] = float64(v)
		}
		coefs := FDCT(&in)
		back := IDCT(&coefs)
		for i := range back {
			if math.Abs(back[i]-in[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDCTEnergyCompactionOnFlatBlock(t *testing.T) {
	var in [dctSize2]float64
	for i := range in {
		in[i] = 50
	}
	coefs := FDCT(&in)
	if math.Abs(coefs[0]-400) > 1e-6 { // 8 * 50
		t.Fatalf("DC = %f want 400", coefs[0])
	}
	for i := 1; i < dctSize2; i++ {
		if math.Abs(coefs[i]) > 1e-9 {
			t.Fatalf("AC[%d] = %g on flat block", i, coefs[i])
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := map[int]bool{}
	for _, v := range jpegNaturalOrder {
		if v < 0 || v >= dctSize2 || seen[v] {
			t.Fatalf("natural order not a permutation at %d", v)
		}
		seen[v] = true
	}
	// Known anchors.
	if jpegNaturalOrder[0] != 0 || jpegNaturalOrder[1] != 1 || jpegNaturalOrder[2] != 8 {
		t.Fatal("zigzag head wrong")
	}
	if jpegNaturalOrder[63] != 63 {
		t.Fatal("zigzag tail wrong")
	}
}

func TestHuffmanTablesCanonical(t *testing.T) {
	for _, tbl := range []*huffTable{dcTable, acTable} {
		// No code is a prefix of another (canonical property).
		for s1, c1 := range tbl.code {
			for s2, c2 := range tbl.code {
				if s1 == s2 {
					continue
				}
				l1, l2 := tbl.size[s1], tbl.size[s2]
				if l1 <= l2 && c1 == c2>>(l2-l1) {
					t.Fatalf("code for %#x is a prefix of %#x", s1, s2)
				}
			}
		}
	}
	if len(acTable.code) != 162 {
		t.Fatalf("AC table has %d symbols", len(acTable.code))
	}
	if len(dcTable.code) != 12 {
		t.Fatalf("DC table has %d symbols", len(dcTable.code))
	}
}

func TestMagnitudeBitsExtendRoundTrip(t *testing.T) {
	for v := -1023; v <= 1023; v++ {
		nbits, bits := magnitudeBits(v)
		if got := extend(bits, nbits); got != v {
			t.Fatalf("extend(magnitude(%d)) = %d", v, got)
		}
	}
	if n, _ := magnitudeBits(0); n != 0 {
		t.Fatal("magnitude of 0 not 0 bits")
	}
	if n, _ := magnitudeBits(-1); n != 1 {
		t.Fatal("magnitude of -1 not 1 bit")
	}
	if n, _ := magnitudeBits(1023); n != 10 {
		t.Fatal("magnitude of 1023 not 10 bits")
	}
}

func TestBitWriterReaderRoundTrip(t *testing.T) {
	f := func(vals []uint16, lens []uint8) bool {
		w := &bitWriter{}
		var want []uint32
		var sizes []uint8
		for i, v := range vals {
			if i >= len(lens) {
				break
			}
			n := lens[i]%16 + 1
			w.write(uint32(v), n)
			want = append(want, uint32(v)&(1<<n-1))
			sizes = append(sizes, n)
		}
		r := &bitReader{buf: w.flush()}
		for i, n := range sizes {
			got, err := r.readBits(n)
			if err != nil || got != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTripCoefficients(t *testing.T) {
	for _, kind := range []SyntheticKind{PatternGradient, PatternCircle, PatternStripes, PatternChecker, PatternText} {
		im, err := Synthetic(kind, 64, 48)
		if err != nil {
			t.Fatal(err)
		}
		enc := &Encoder{Quality: 75}
		res, err := enc.Encode(im)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		blocks, err := DecodeBlocks(res)
		if err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}
		if len(blocks) != len(res.Blocks) {
			t.Fatalf("%s: %d blocks decoded, want %d", kind, len(blocks), len(res.Blocks))
		}
		for i := range blocks {
			if blocks[i] != res.Blocks[i] {
				t.Fatalf("%s: block %d coefficient mismatch", kind, i)
			}
		}
	}
}

func psnr(a, b *Image) float64 {
	var mse float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		mse += d * d
	}
	mse /= float64(len(a.Pix))
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(255*255/mse)
}

func TestLossyRoundTripQuality(t *testing.T) {
	im, _ := Synthetic(PatternGradient, 64, 64)
	enc := &Encoder{Quality: 90}
	res, err := enc.Encode(im)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(res)
	if err != nil {
		t.Fatal(err)
	}
	if p := psnr(im, out); p < 30 {
		t.Fatalf("PSNR %f too low for quality 90", p)
	}
}

func TestHooksFireMatchingCoefficients(t *testing.T) {
	im, _ := Synthetic(PatternCircle, 32, 32)
	var zeros, nonzeros int
	enc := &Encoder{
		Quality: 75,
		Hooks: &Hooks{
			ZeroCoef:    func(k int) { zeros++ },
			NonzeroCoef: func(k, nbits int) { nonzeros++ },
		},
	}
	res, err := enc.Encode(im)
	if err != nil {
		t.Fatal(err)
	}
	// Count ground truth from the quantized blocks.
	wantZero, wantNonzero := 0, 0
	for _, b := range res.Blocks {
		for k := 1; k < dctSize2; k++ {
			if b[jpegNaturalOrder[k]] == 0 {
				wantZero++
			} else {
				wantNonzero++
			}
		}
	}
	if zeros != wantZero || nonzeros != wantNonzero {
		t.Fatalf("hooks: %d/%d want %d/%d", zeros, nonzeros, wantZero, wantNonzero)
	}
}

func TestASCIIRendering(t *testing.T) {
	im, _ := Synthetic(PatternChecker, 32, 32)
	s := im.ASCII(32)
	if len(s) == 0 {
		t.Fatal("empty ASCII art")
	}
}

func TestSyntheticUnknownKind(t *testing.T) {
	if _, err := Synthetic("nope", 8, 8); err == nil {
		t.Fatal("expected error")
	}
}

func TestQuantTableQualityMonotonic(t *testing.T) {
	q50 := QuantTable(50)
	q90 := QuantTable(90)
	for i := range q50 {
		if q90[i] > q50[i] {
			t.Fatalf("higher quality has coarser quantizer at %d", i)
		}
	}
	q1 := QuantTable(1)
	for i := range q1 {
		if q1[i] < 1 || q1[i] > 255 {
			t.Fatalf("quant[%d] = %d out of range", i, q1[i])
		}
	}
}

func TestPGMRoundTrip(t *testing.T) {
	im, _ := Synthetic(PatternCircle, 20, 12)
	var buf bytes.Buffer
	if err := WritePGM(&buf, im); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != im.W || got.H != im.H {
		t.Fatalf("size %dx%d", got.W, got.H)
	}
	for i := range im.Pix {
		if got.Pix[i] != im.Pix[i] {
			t.Fatalf("pixel %d differs", i)
		}
	}
}

func TestPGMComments(t *testing.T) {
	raw := "P5 # magic\n# a comment line\n 2 # width\n2\n255\n\x01\x02\x03\x04"
	im, err := ReadPGM(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if im.W != 2 || im.H != 2 || im.Pix[3] != 4 {
		t.Fatalf("parsed %dx%d %v", im.W, im.H, im.Pix)
	}
}

func TestPGMMaxvalScaling(t *testing.T) {
	raw := "P5\n1 1\n15\n\x0f" // maxval 15, pixel 15 -> 255
	im, err := ReadPGM(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if im.Pix[0] != 255 {
		t.Fatalf("scaled pixel %d", im.Pix[0])
	}
}

func TestPGMErrors(t *testing.T) {
	for _, raw := range []string{
		"P2\n1 1\n255\nx",      // ASCII PGM unsupported
		"P5\n0 1\n255\n",       // zero width
		"P5\n1 1\n70000\n\x00", // bad maxval
		"P5\n2 2\n255\n\x01",   // short data
	} {
		if _, err := ReadPGM(strings.NewReader(raw)); err == nil {
			t.Fatalf("accepted invalid PGM %q", raw)
		}
	}
}

// Decode inverts Encode: it entropy-decodes the coefficient blocks,
// dequantizes, and applies the inverse DCT. It exists both to prove the
// encoder emits a valid stream (round-trip tests) and as the back half of
// the attacker's local reconstruction pipeline (§VIII-A1).
func Decode(res *Result) (*Image, error) {
	blocks, err := DecodeBlocks(res)
	if err != nil {
		return nil, err
	}
	return RenderBlocks(blocks, res.W, res.H, res.Quality), nil
}
