package bitset

import (
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Errorf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if s.Count() != 8 {
		t.Errorf("Count = %d, want 8", s.Count())
	}
	s.Clear(64)
	if s.Test(64) {
		t.Error("bit 64 still set after Clear")
	}
	if s.Count() != 7 {
		t.Errorf("Count = %d, want 7", s.Count())
	}
}

func TestFillAllReset(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 4095} {
		s := New(n)
		s.Fill()
		if !s.All() {
			t.Errorf("n=%d: All() false after Fill", n)
		}
		if s.Count() != n {
			t.Errorf("n=%d: Count = %d after Fill", n, s.Count())
		}
		s.Reset()
		if s.Count() != 0 {
			t.Errorf("n=%d: Count = %d after Reset", n, s.Count())
		}
	}
}

// TestAllAndEmptyDecideByWord holds All and Empty, which stop at the first
// word that decides, to the popcount at lengths around a word's edge and at
// 2^d − 1 for d = 6…14, with one bit missing (or present) in each word
// position, the last word's highest addressable bit included.
func TestAllAndEmptyDecideByWord(t *testing.T) {
	lengths := []int{1, 63, 64, 65}
	for d := 6; d <= 14; d++ {
		lengths = append(lengths, 1<<d-1)
	}
	for _, n := range lengths {
		s, e := New(n), New(n)
		s.Fill()
		if !s.All() || s.Empty() || !e.Empty() || e.All() {
			t.Fatalf("n=%d: full All=%v Empty=%v, empty All=%v Empty=%v", n, s.All(), s.Empty(), e.All(), e.Empty())
		}
		for wi := 0; wi*wordBits < n; wi++ {
			for _, i := range []int{wi * wordBits, min((wi+1)*wordBits, n) - 1} {
				s.Clear(i)
				if s.All() || s.All() != (s.Count() == n) {
					t.Fatalf("n=%d: All() with bit %d clear", n, i)
				}
				s.Set(i)
				e.Set(i)
				if e.Empty() || e.Empty() != (e.Count() == 0) {
					t.Fatalf("n=%d: Empty() with bit %d set", n, i)
				}
				e.Clear(i)
			}
		}
		if !s.All() || !e.Empty() {
			t.Fatalf("n=%d: sets not restored", n)
		}
	}
}

func TestOrAndNot(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(3)
	a.Set(70)
	b.Set(70)
	b.Set(99)
	a.Or(b)
	for _, i := range []int{3, 70, 99} {
		if !a.Test(i) {
			t.Errorf("bit %d missing after Or", i)
		}
	}
	a.AndNot(b)
	if !a.Test(3) || a.Test(70) || a.Test(99) {
		t.Error("AndNot result wrong")
	}
}

func TestNextClear(t *testing.T) {
	s := New(200)
	if got := s.NextClear(0); got != 0 {
		t.Errorf("NextClear(0) on empty = %d, want 0", got)
	}
	s.Fill()
	if got := s.NextClear(0); got != -1 {
		t.Errorf("NextClear(0) on full = %d, want -1", got)
	}
	s.Clear(5)
	s.Clear(64)
	s.Clear(199)
	if got := s.NextClear(0); got != 5 {
		t.Errorf("NextClear(0) = %d, want 5", got)
	}
	if got := s.NextClear(6); got != 64 {
		t.Errorf("NextClear(6) = %d, want 64", got)
	}
	if got := s.NextClear(65); got != 199 {
		t.Errorf("NextClear(65) = %d, want 199", got)
	}
	if got := s.NextClear(200); got != -1 {
		t.Errorf("NextClear(200) = %d, want -1", got)
	}
	s.Set(199)
	if got := s.NextClear(65); got != -1 {
		t.Errorf("NextClear(65) = %d, want -1", got)
	}
}

func TestNextClearIteratesAllClearBits(t *testing.T) {
	f := func(setBits []uint16) bool {
		const n = 300
		s := New(n)
		want := make(map[int]bool)
		for i := 0; i < n; i++ {
			want[i] = true
		}
		for _, b := range setBits {
			i := int(b) % n
			s.Set(i)
			delete(want, i)
		}
		got := 0
		for i := s.NextClear(0); i != -1; i = s.NextClear(i + 1) {
			if !want[i] {
				return false
			}
			got++
		}
		return got == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(70)
	a.Set(69)
	b := a.Clone()
	b.Set(1)
	if a.Test(1) {
		t.Error("Clone shares storage with original")
	}
	if !b.Test(69) {
		t.Error("Clone missing original bit")
	}
}

func TestCopyFrom(t *testing.T) {
	a, b := New(70), New(70)
	b.Set(10)
	a.Set(20)
	a.CopyFrom(b)
	if !a.Test(10) || a.Test(20) {
		t.Error("CopyFrom did not overwrite")
	}
}

func TestOrNotStaysInRange(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 255} {
		s, u := New(n), New(n)
		u.Fill()
		u.Clear(0)
		s.OrNot(u)
		if s.Count() != 1 || !s.Test(0) {
			t.Errorf("n=%d: s ∪ ¬t has %d bits, want bit 0 alone", n, s.Count())
		}
		s.OrNot(New(n))
		if !s.All() || s.Count() != n {
			t.Errorf("n=%d: s ∪ ¬∅ has %d of %d bits", n, s.Count(), n)
		}
	}
}

func TestHexRoundTrip(t *testing.T) {
	for _, n := range []int{1, 3, 15, 63, 64, 65, 255, 1023} {
		s := New(n)
		if h := s.Hex(); h != "0" {
			t.Errorf("n=%d: empty set renders %q, want 0", n, h)
		}
		for _, i := range []int{0, 3, 4, 62, 63, 64, 200, 1022} {
			if i < n {
				s.Set(i)
			}
		}
		h := s.Hex()
		if len(h) > (n+3)/4 {
			t.Errorf("n=%d: %q is longer than %d digits", n, h, (n+3)/4)
		}
		back, err := ParseHex(h, n)
		if err != nil {
			t.Fatalf("n=%d: ParseHex(%q): %v", n, h, err)
		}
		if back.Hex() != h || back.Count() != s.Count() {
			t.Errorf("n=%d: %q reads back as %q", n, h, back.Hex())
		}
		for i := 0; i < n; i++ {
			if back.Test(i) != s.Test(i) {
				t.Fatalf("n=%d: bit %d differs after a round trip", n, i)
			}
		}
	}
	if h := New(15).Hex(); h != "0" {
		t.Errorf("empty: %q", h)
	}
	s := New(15)
	s.Set(0)
	s.Set(2)
	s.Set(14)
	if h := s.Hex(); h != "4005" {
		t.Errorf("bits {0,2,14} render %q, want 4005", h)
	}
	for _, bad := range []string{"", "x", "1g", "8000", "-1"} {
		if _, err := ParseHex(bad, 15); err == nil {
			t.Errorf("ParseHex(%q, 15) accepted", bad)
		}
	}
	if s, err := ParseHex("0007FFF", 15); err != nil || s.Count() != 15 {
		t.Errorf("ParseHex with leading zeros and upper case: %v, %v", s, err)
	}
}
