package dom

import (
	"encoding/binary"
	"math"
	"testing"

	"skycube/internal/mask"
)

// comparePalette holds the values a vector compare could treat differently
// from Go's operators — ±0, ±Inf, NaN, denormals, the extremes — and a few
// small integers so that ties are common.
var comparePalette = [16]float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(1), math.Float32frombits(0x807fffff), math.MaxFloat32,
	-math.MaxFloat32, math.SmallestNonzeroFloat32, 1, -1,
	2, 3, 4, 0.5,
}

// compareSeed assembles a fuzz input: d, then one byte per coordinate of p
// and then of q — below 0x80 a palette index, otherwise followed by four
// bytes of raw float32 bits.
func compareSeed(d int, coords ...byte) []byte {
	return append([]byte{byte(d - 1)}, coords...)
}

// relDefinition is Rel's definition, one dimension at a time.
func relDefinition(p, q []float32) Rel {
	var r Rel
	for i := range p {
		if p[i] < q[i] {
			r.Lt |= 1 << uint(i)
		}
		if p[i] == q[i] {
			r.Eq |= 1 << uint(i)
		}
	}
	return r
}

// FuzzCompareEquivalence holds both bodies of Compare — the assembly and the
// Go loop, in one execution — to Rel's definition, in both directions, for
// every d from 1 to mask.MaxDims. The points are cut from one longer slice
// at an offset the input chooses, so loads of any alignment are tried.
func FuzzCompareEquivalence(f *testing.F) {
	// Equal points, ±0 against each other, ±Inf and NaN against everything.
	for _, d := range []int{1, 4, 7, 8, 9, 16, 17, 20} {
		same := make([]byte, 2*d)
		for i := range same {
			same[i] = byte(10 + i%d%6)
		}
		f.Add(compareSeed(d, same...))
		mixed := make([]byte, 2*d)
		for i := range mixed {
			mixed[i] = byte(i * 5 % 16)
		}
		f.Add(compareSeed(d, mixed...))
	}
	f.Add(compareSeed(2, 0, 1, 1, 0))                                              // +0 vs −0, −0 vs +0
	f.Add(compareSeed(4, 4, 4, 2, 3, 4, 0, 2, 2))                                  // NaN vs NaN, NaN vs 0, +Inf ties
	f.Add(compareSeed(3, 0x80, 0, 0, 0xc0, 0x7f, 2, 1, 0x80, 0, 0, 0xc0, 0x7f, 3)) // a NaN payload on both sides
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		d := int(raw[0])%mask.MaxDims + 1
		off := int(raw[0]) / mask.MaxDims % 8
		raw = raw[1:]
		next := 0
		coord := func() float32 {
			b := raw[next%len(raw)]
			next++
			if b < 0x80 {
				return comparePalette[b%16]
			}
			var bits [4]byte
			for i := range bits {
				bits[i] = raw[next%len(raw)]
				next++
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(bits[:]))
		}
		buf := make([]float32, off+2*d)
		for i := off; i < len(buf); i++ {
			buf[i] = coord()
		}
		p, q := buf[off:off+d:off+d], buf[off+d:]
		want, back := relDefinition(p, q), relDefinition(q, p)
		eachKernel(func(impl string) {
			if got := Compare(p, q); got != want {
				t.Fatalf("%s d=%d: Compare(%v, %v) = %+v, definition says %+v", impl, d, p, q, got, want)
			}
			if got := Compare(q, p); got != back {
				t.Fatalf("%s d=%d: Compare(%v, %v) = %+v, definition says %+v", impl, d, q, p, got, back)
			}
		})
	})
}
