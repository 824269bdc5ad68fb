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
