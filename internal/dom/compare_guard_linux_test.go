//go:build linux

package dom

import (
	"syscall"
	"testing"
	"unsafe"

	"skycube/internal/mask"
)

// guardedPage maps one read-write page between two PROT_NONE pages and
// returns it as float32s: a load that strays past either end faults.
func guardedPage(t *testing.T) []float32 {
	t.Helper()
	size := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	for _, guard := range [][]byte{mem[:size], mem[2*size:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[size])), size/4)
}

// TestCompareReadsOnlyItsPoints places p and q flush against a guard page —
// ending where the page ends, and starting where it starts — for every d up
// to mask.MaxDims. A kernel that loads one float past either point, or
// before it, faults here instead of passing by reading a neighbour.
func TestCompareReadsOnlyItsPoints(t *testing.T) {
	pp, qp := guardedPage(t), guardedPage(t)
	for i := range pp {
		pp[i], qp[i] = float32(i%5), float32(i%3)
	}
	for d := 1; d <= mask.MaxDims; d++ {
		for _, at := range []int{len(pp) - d, 0} {
			p, q := pp[at:at+d:at+d], qp[at:at+d:at+d]
			want := relDefinition(p, q)
			eachKernel(func(impl string) {
				if got := Compare(p, q); got != want {
					t.Fatalf("%s d=%d at %d: Compare = %+v, definition says %+v", impl, d, at, got, want)
				}
			})
		}
	}
}
