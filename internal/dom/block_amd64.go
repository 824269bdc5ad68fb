//go:build amd64 && !purego

package dom

// useAVX2 selects the assembly word sweeps of block_amd64.s and label_amd64.s
// and the row compare of compare_amd64.s. It is set once, here, from what the
// process can observe about its CPU; only in-package tests write it
// afterwards, to hold both implementations to the same oracle.
var useAVX2 = detectAVX2()

// leqWordAVX2 returns the lanes of alive that are ≤ pq on all k columns of one
// 64-lane word: col0 addresses the word's first lane in column 0, column j
// starts j·stride bytes later, pq addresses k query coordinates. k ≥ 1.
//
//go:noescape
func leqWordAVX2(col0 *float32, stride uintptr, k int, pq *float32, alive uint64) uint64

// relWordAVX2 is RelWord's sweep: for each of the k columns of one 64-lane
// word (addressed as for leqWordAVX2) it stores the lanes of alive ≤ pq[j]
// at leq[j] and those < pq[j] at lt[j]. k ≥ 1.
//
//go:noescape
func relWordAVX2(col0 *float32, stride uintptr, k int, pq *float32, alive uint64, leq, lt *uint64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// detectAVX2 reports whether AVX2 instructions may run: the CPU has them
// (CPUID.7.0:EBX bit 5, and AVX, CPUID.1:ECX bit 28) and the OS saves the
// YMM state they use (OSXSAVE, CPUID.1:ECX bit 27, and XCR0 bits 1 and 2).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// labelWordAVX2 is LabelWord's sweep of one 64-entry word: med, quart and oct
// address the word's first entry in each label column, seen the subspace set's
// first word. It reads 64 entries of each column, and of seen only the dwords
// the non-zero masks index — at most (s.full−1)>>5; it writes the 64 masks to
// xs.
//
//go:noescape
func labelWordAVX2(med, quart, oct *uint32, s *LabelSel, seen *uint64, xs *[64]uint32) uint64

// compareAVX2 is Compare's body: the masks of p[i] < q[i] and p[i] == q[i]
// over the d coordinates at p and q, which it reads and no further. d ≥ 1.
//
//go:noescape
func compareAVX2(p, q *float32, d int) (lt, eq uint32)
