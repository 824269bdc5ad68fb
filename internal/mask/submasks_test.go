package mask

// SubmasksOf calls fn for every non-empty submask of m, including m itself.
// Iteration stops early if fn returns false. The standard (s−1)&m walk
// enumerates submasks in descending numeric order. It is the bit-by-bit
// reference the word-parallel bitset.OrDownset is fuzzed against
// (FuzzDownset); no production code walks submasks.
func SubmasksOf(m Mask, fn func(Mask) bool) {
	if m == 0 {
		return
	}
	for s := m; ; s = (s - 1) & m {
		if !fn(s) {
			return
		}
		if s == 0 { // unreachable: loop exits below before reaching 0
			return
		}
		if s == m&-m { // smallest non-empty submask processed; stop
			return
		}
	}
}
