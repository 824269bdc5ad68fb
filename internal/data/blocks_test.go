package data

import "testing"

// TestBlockSizeIsWholeWords pins the layout rule the dominance kernels read
// by: a block size is rounded up to a multiple of 64, every column has that
// many floats of backing store, and nothing else about the set — Len, the
// fill order, MinSum — depends on the rounding.
func TestBlockSizeIsWholeWords(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{-3, 64}, {0, 64}, {1, 64}, {64, 64}, {65, 128}, {100, 128}, {256, 256},
	} {
		const n, k = 300, 3
		s := NewBlockSet(k, tc.ask)
		if s.BlockSize != tc.want {
			t.Fatalf("NewBlockSet(%d, %d).BlockSize = %d, want %d", k, tc.ask, s.BlockSize, tc.want)
		}
		for i := 0; i < n; i++ {
			v := float32(i)
			s.Append([]float32{v, v, v}, int32(i), 3*v)
		}
		if s.Len() != n || len(s.Blocks) != (n+tc.want-1)/tc.want {
			t.Fatalf("size %d: Len %d in %d blocks", tc.want, s.Len(), len(s.Blocks))
		}
		for bi, b := range s.Blocks {
			if want := float32(3 * bi * tc.want); b.MinSum() != want {
				t.Errorf("size %d block %d: MinSum %v, want %v", tc.want, bi, b.MinSum(), want)
			}
			for j, col := range b.Cols {
				if len(col) != tc.want {
					t.Errorf("size %d block %d column %d: %d lanes of backing store", tc.want, bi, j, len(col))
				}
			}
			for lane := 0; lane < tc.want; lane++ {
				if b.IsAlive(lane) != (lane < b.N) {
					t.Fatalf("size %d block %d lane %d of %d: alive %v", tc.want, bi, lane, b.N, b.IsAlive(lane))
				}
			}
		}
	}
}

// TestReusedBlockMasksStaleLanes: a Reset keeps the blocks and their contents,
// so the lanes past N of a re-used block hold the previous fill — and Alive,
// which only Append sets, does not cover them.
func TestReusedBlockMasksStaleLanes(t *testing.T) {
	s := NewBlockSet(1, 64)
	for i := 0; i < 64; i++ {
		s.Append([]float32{-1}, int32(i), -1)
	}
	s.Reset()
	s.Append([]float32{7}, 0, 7)
	b := s.Blocks[0]
	if b.N != 1 || b.Alive[0] != 1 {
		t.Fatalf("re-used block: N %d, Alive %b", b.N, b.Alive[0])
	}
	if b.Cols[0][1] != -1 {
		t.Fatalf("lane 1 holds %v: the test no longer exercises a stale lane", b.Cols[0][1])
	}
}
