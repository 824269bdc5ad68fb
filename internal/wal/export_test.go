package wal

// BreakForTest closes the active segment under the store, so that the next
// write of buffered records to it fails.
func (s *Store) BreakForTest() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.Close()
}
