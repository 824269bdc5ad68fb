package dom

import (
	"encoding/binary"
	"testing"

	"skycube/internal/mask"
)

// The second header byte of a label fuzz input.
const (
	// flModeMask: 0 refine, 1 filter over two levels, 2 (and 3) over three.
	flModeMask = 3
	// flZeroOct: the oct column and the point's oct label are zero — a
	// depth-2 tree.
	flZeroOct = 1 << 2
	// flGarbage: labels keep whatever the input has above bit d; otherwise
	// they are cut to the d low bits, as a tree's are.
	flGarbage = 1 << 3
	// flSeenShift: two bits; 0 fills the set from the input, 1 leaves it
	// empty, 2 sets every bit, 3 sets every other word.
	flSeenShift = 4
)

// labelSeed assembles a fuzz input: d, the flags above, how many words of
// other entries precede the swept one in its columns, the point's three
// labels, then entry labels (med, quart, oct per entry; cycled to 64 entries).
func labelSeed(d int, flags byte, before int, p [3]uint32, entries ...uint32) []byte {
	raw := []byte{byte(d - 1), flags, byte(before)}
	for _, v := range append(p[:], entries...) {
		raw = binary.LittleEndian.AppendUint32(raw, v)
	}
	return raw
}

// strictLabels is stree.CompositeStrictLabels' definition: the dimensions on
// which labels alone prove every point labelled (mq, qq, oq) strictly below a
// point labelled (mp, qp, op).
func strictLabels(mq, qq, oq, mp, qp, op mask.Mask, depth int) mask.Mask {
	delta := mq &^ mp
	sameHalf := ^(mq ^ mp)
	delta |= (qq &^ qp) & sameHalf
	if depth == 3 {
		delta |= (oq &^ op) & sameHalf & ^(qq ^ qp)
	}
	return delta
}

// FuzzLabelWordEquivalence holds both implementations of the label word sweep
// — the assembly and the Go loop, in one execution — and the one-lane
// LabelMask to stree.CompositeStrictLabels' definition and a plain bit test,
// for both directions of the composite mask, on a word anywhere in its
// columns, against a set of exactly the length the masks can index. The 64
// masks each implementation hands back must be LabelMask's, lane for lane.
func FuzzLabelWordEquivalence(f *testing.F) {
	ramp := make([]uint32, 0, 3*64)
	for i := uint32(0); i < 64; i++ {
		ramp = append(ramp, i*0x9e3779b1, i*0x85ebca6b+1, i*0xc2b2ae35+2)
	}
	// d = 1 and d = 16 (a 65 535-bit set: the gather's whole index range), in
	// every mode.
	for _, mode := range []byte{0, 1, 2} {
		f.Add(labelSeed(1, mode, 0, [3]uint32{1, 0, 1}, 0, 1, 0, 1, 0, 0, 0, 1, 1))
		f.Add(labelSeed(16, mode, 0, [3]uint32{0xa5a5, 0x0ff0, 0x3c3c}, ramp...))
		f.Add(labelSeed(16, mode|2<<flSeenShift, 0, [3]uint32{0xa5a5, 0x0ff0, 0x3c3c}, ramp...))
		f.Add(labelSeed(8, mode|1<<flSeenShift, 1, [3]uint32{0x5a, 0x0f, 0x33}, ramp...))
		f.Add(labelSeed(8, mode|3<<flSeenShift|flGarbage, 0, [3]uint32{0xffffff5a, 0x8000000f, 0x33}, ramp...))
	}
	// Every lane x = 0, so no lane may read the set: the refine of a point
	// below every median over entries above them all, and the filter over
	// entries labelled like the point. At d = 6 the set is one word long.
	for _, d := range []int{6, 16} {
		full := mask.Full(d)
		f.Add(labelSeed(d, 0, 0, [3]uint32{full, 0, 0}, 0, 0, 0))
		f.Add(labelSeed(d, 2, 0, [3]uint32{5, 3, 1}, 5, 3, 1))
	}
	// A depth-2 tree's zero oct column, under the refine and a two-level filter.
	f.Add(labelSeed(5, flZeroOct, 0, [3]uint32{9, 6, 0}, ramp...))
	f.Add(labelSeed(5, flZeroOct|1, 0, [3]uint32{9, 6, 0}, ramp...))
	// The last 64 entries of a padded column: three words come first.
	f.Add(labelSeed(7, 0, 3, [3]uint32{0x55, 0x2a, 0x0f}, ramp[:30]...))

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 {
			return
		}
		d := int(raw[0]&15) + 1
		flags, before := raw[1], int(raw[2]&3)
		full := mask.Full(d)
		raw = raw[3:]
		word := func(i int) uint32 { // the i-th 32-bit value of the input, cycled
			if len(raw) < 4 {
				return 0
			}
			off := i * 4 % (len(raw) - 3)
			return binary.LittleEndian.Uint32(raw[off:])
		}
		cut := func(v uint32) mask.Mask {
			if flags&flGarbage != 0 {
				return v
			}
			return v & full
		}
		mp, qp, op := cut(word(0)), cut(word(1)), cut(word(2))
		entries := max((len(raw)/4-3)/3, 1)
		n := (before + 1) * 64
		med, quart, oct := make([]mask.Mask, n), make([]mask.Mask, n), make([]mask.Mask, n)
		for i := 0; i < n; i++ {
			e := 3 + 3*(i%entries)
			// The words before the swept one hold other values: a sweep that
			// reads the wrong word disagrees with the oracle.
			salt := uint32(before-i>>6) * 0x01010101
			med[i], quart[i], oct[i] = cut(word(e)^salt), cut(word(e+1)^salt), cut(word(e+2)^salt)
		}
		if flags&flZeroOct != 0 {
			op = 0
			clear(oct)
		}

		seen := make([]uint64, (full-1)>>6+1)
		switch flags >> flSeenShift & 3 {
		case 0:
			for i := range seen {
				seen[i] = uint64(word(2*i+1))<<32 | uint64(word(2*i)) ^ uint64(i)*0x9e3779b97f4a7c15
			}
		case 2:
			for i := range seen {
				seen[i] = ^uint64(0)
			}
		case 3:
			for i := 0; i < len(seen); i += 2 {
				seen[i] = ^uint64(0)
			}
		}

		var sel LabelSel
		var want func(m, q, o mask.Mask) mask.Mask
		switch mode := flags & flModeMask; {
		case mode == 0:
			depth := 3
			if flags&flZeroOct != 0 {
				depth = 2
			}
			sel = RefineSel(mp, qp, op, full)
			want = func(m, q, o mask.Mask) mask.Mask { return full &^ strictLabels(mp, qp, op, m, q, o, depth) }
		default:
			levels := int(min(mode, 2)) + 1
			sel = FilterSel(mp, qp, op, levels, full)
			want = func(m, q, o mask.Mask) mask.Mask { return strictLabels(m, q, o, mp, qp, op, levels) & full }
		}

		var live uint64
		var xs [64]mask.Mask
		for i := 0; i < 64; i++ {
			e := before<<6 + i
			xs[i] = want(med[e], quart[e], oct[e])
			if got := LabelMask(med[e], quart[e], oct[e], &sel); got != xs[i] {
				t.Fatalf("d=%d flags=%#x entry %d: LabelMask = %#x, definition says %#x", d, flags, e, got, xs[i])
			}
			if x := xs[i]; x != 0 && seen[(x-1)/64]&(1<<((x-1)%64)) == 0 {
				live |= 1 << uint(i)
			}
		}
		eachKernel(func(impl string) {
			var got [64]mask.Mask
			for i := range got {
				got[i] = ^xs[i] // a lane the sweep does not write fails below
			}
			if l := LabelWord(med, quart, oct, before, &sel, seen, &got); l != live {
				t.Fatalf("%s: d=%d flags=%#x word %d: live lanes %#016x, want %#016x", impl, d, flags, before, l, live)
			}
			for i := range got {
				if got[i] != xs[i] {
					t.Fatalf("%s: d=%d flags=%#x word %d lane %d: mask %#x, LabelMask says %#x", impl, d, flags, before, i, got[i], xs[i])
				}
			}
		})
	})
}
