package cluster

import "testing"

// TestIDSchemeSingleSegment: the plain-partition scheme reproduces the
// -id-base/-id-stride arithmetic and inverts exactly the ids it mints.
func TestIDSchemeSingleSegment(t *testing.T) {
	s := newIDScheme(1, 3) // shard 1 of a 3-way round-robin
	for local := int32(0); local < 100; local++ {
		g := s.global(local)
		if want := 1 + local*3; g != want {
			t.Fatalf("global(%d) = %d, want %d", local, g, want)
		}
		back, ok := s.localOf(g)
		if !ok || back != local {
			t.Fatalf("localOf(%d) = %d,%v; want %d,true", g, back, ok, local)
		}
	}
	// Ids off the stride grid belong to the other shards.
	for _, g := range []int32{0, 2, 3, 5, 6} {
		if _, ok := s.localOf(g); ok {
			t.Fatalf("localOf(%d) claimed an id off this shard's grid", g)
		}
	}
	if base, stride := s.primary(); base != 1 || stride != 3 {
		t.Fatalf("primary = %d/%d, want 1/3", base, stride)
	}
	if s.sealed() {
		t.Fatal("plain scheme reports sealed")
	}
	if s.rangePartitioned() {
		t.Fatal("stride-3 scheme reports range-partitioned")
	}
	if !newIDScheme(500, 1).rangePartitioned() {
		t.Fatal("stride-1 low-base scheme not range-partitioned")
	}
	// Stride 0 (single-shard cluster) normalises to the identity mapping.
	if g := newIDScheme(0, 0).global(7); g != 7 {
		t.Fatalf("stride-0 global(7) = %d", g)
	}
}

// TestIDSchemeSeal: sealing appends a fresh stride-1 block; copied rows
// keep the parent arithmetic, rows from nextLocal on mint from the block,
// and localOf resolves a contested id to the newer segment.
func TestIDSchemeSeal(t *testing.T) {
	s := newIDScheme(0, 2) // child copied from parent shard 0 of 2
	sealed, err := s.seal(50, SplitBlockBase)
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	if !sealed.sealed() {
		t.Fatal("sealed scheme reports unsealed")
	}
	if s.sealed() {
		t.Fatal("seal mutated the original scheme")
	}
	// Copied region: original arithmetic.
	if g := sealed.global(49); g != 98 {
		t.Fatalf("copied row 49 -> %d, want 98", g)
	}
	// Post-seal region: the fresh block.
	if g := sealed.global(50); g != SplitBlockBase {
		t.Fatalf("first minted row -> %d, want %d", g, SplitBlockBase)
	}
	if g := sealed.global(53); g != SplitBlockBase+3 {
		t.Fatalf("minted row 53 -> %d, want %d", g, SplitBlockBase+3)
	}
	// Inversion covers both regions.
	if back, ok := sealed.localOf(98); !ok || back != 49 {
		t.Fatalf("localOf(98) = %d,%v", back, ok)
	}
	if back, ok := sealed.localOf(SplitBlockBase + 3); !ok || back != 53 {
		t.Fatalf("localOf(block+3) = %d,%v", back, ok)
	}
	// Local rows 50+ no longer answer to the old arithmetic: global id 100
	// (old row 50) is nobody's id on this shard now.
	if _, ok := sealed.localOf(100); ok {
		t.Fatal("localOf(100) still resolves through the superseded arithmetic")
	}
	// Sealing is still not range-partitioned (the primary stride-2 rules).
	if sealed.rangePartitioned() {
		t.Fatal("sealed stride-2 scheme reports range-partitioned")
	}

	// Validation: a second seal must start after the last segment, and the
	// fresh base must sit in the reserved region.
	if _, err := sealed.seal(50, SplitBlockBase+splitBlockSize); err == nil {
		t.Fatal("seal at an existing segment start accepted")
	}
	if _, err := sealed.seal(60, 1000); err == nil {
		t.Fatal("seal base below the reserved region accepted")
	}
}

// TestIDSchemeSegmentsRoundTrip: segments() → schemeFromSegments rebuilds
// an equivalent scheme (the /shard/info → coordinator learn path, and a
// shard restoring the scheme its checkpoint holds).
func TestIDSchemeSegmentsRoundTrip(t *testing.T) {
	s := newIDScheme(1, 2)
	sealed, err := s.seal(30, SplitBlockBase+splitBlockSize)
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	rebuilt, err := schemeFromSegments(sealed.segments())
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	for local := int32(0); local < 80; local++ {
		if a, b := sealed.global(local), rebuilt.global(local); a != b {
			t.Fatalf("global(%d): %d vs %d after round trip", local, a, b)
		}
	}
	// The defensive copy really is one.
	segs := sealed.segments()
	segs[0].Base = 999
	if sealed.segs[0].Base == 999 {
		t.Fatal("segments() exposed the internal slice")
	}

	// Validation failures.
	for name, segs := range map[string][]IDSegment{
		"empty":           nil,
		"gap at zero":     {{Start: 5, Base: 0, Stride: 1}},
		"zero stride":     {{Start: 0, Base: 0, Stride: 0}},
		"negative base":   {{Start: 0, Base: -1, Stride: 1}},
		"duplicate start": {{Start: 0, Base: 0, Stride: 1}, {Start: 0, Base: 9, Stride: 1}},
	} {
		if _, err := schemeFromSegments(segs); err == nil {
			t.Fatalf("%s segment list accepted", name)
		}
	}
	// Out-of-order input is sorted, not rejected.
	ok, err := schemeFromSegments([]IDSegment{
		{Start: 40, Base: SplitBlockBase, Stride: 1},
		{Start: 0, Base: 0, Stride: 2},
	})
	if err != nil {
		t.Fatalf("out-of-order segments rejected: %v", err)
	}
	if g := ok.global(41); g != SplitBlockBase+1 {
		t.Fatalf("sorted scheme global(41) = %d", g)
	}
}
