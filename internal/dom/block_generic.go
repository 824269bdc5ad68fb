//go:build !amd64 || purego

package dom

// useAVX2 is false in a build without the assembly of block_amd64.s: the Go
// loops of block.go, label.go and dom.go are the kernels. A variable, not a
// constant, so the in-package tests that toggle it compile here too.
var useAVX2 = false

func leqWordAVX2(col0 *float32, stride uintptr, k int, pq *float32, alive uint64) uint64 {
	panic("dom: no AVX2 kernel in this build")
}

func relWordAVX2(col0 *float32, stride uintptr, k int, pq *float32, alive uint64, leq, lt *uint64) {
	panic("dom: no AVX2 kernel in this build")
}

func labelWordAVX2(med, quart, oct *uint32, s *LabelSel, seen *uint64, xs *[64]uint32) uint64 {
	panic("dom: no AVX2 kernel in this build")
}

func compareAVX2(p, q *float32, d int) (lt, eq uint32) {
	panic("dom: no AVX2 kernel in this build")
}
