package skycube

import (
	"fmt"
	"io"

	"skycube/internal/data"
	"skycube/internal/gen"
	"skycube/internal/mask"
)

// MaxDims is the largest supported dimensionality (the paper evaluates up
// to d = 16; anything ≤ 20 works).
const MaxDims = mask.MaxDims

// Dataset is an immutable set of points over d dimensions. Smaller values
// are better on every dimension; normalise inputs accordingly (e.g. negate
// "higher is better" attributes).
type Dataset struct {
	ds *data.Dataset
}

// NewDataset builds a dataset from a row-major value slice: point i's value
// on dimension j is vals[i*dims+j].
func NewDataset(dims int, vals []float32) (*Dataset, error) {
	if dims <= 0 || dims > MaxDims {
		return nil, fmt.Errorf("skycube: dimensionality %d out of range [1,%d]", dims, MaxDims)
	}
	if len(vals) == 0 || len(vals)%dims != 0 {
		return nil, fmt.Errorf("skycube: %d values is not a positive multiple of %d dims", len(vals), dims)
	}
	ds := data.New(dims, vals)
	if err := data.CheckFinite(ds); err != nil {
		return nil, fmt.Errorf("skycube: %v", err)
	}
	return &Dataset{ds: ds}, nil
}

// DatasetFromRows builds a dataset from per-point rows, all the same width.
func DatasetFromRows(rows [][]float32) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("skycube: no rows")
	}
	d := len(rows[0])
	if d == 0 || d > MaxDims {
		return nil, fmt.Errorf("skycube: row width %d out of range [1,%d]", d, MaxDims)
	}
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("skycube: row %d has %d values, want %d", i, len(r), d)
		}
	}
	ds := data.FromRows(rows)
	if err := data.CheckFinite(ds); err != nil {
		return nil, fmt.Errorf("skycube: %v", err)
	}
	return &Dataset{ds: ds}, nil
}

// ReadDataset parses the whitespace-separated text format: one point per
// line, '#' comments and blank lines skipped. Non-finite coordinates
// (NaN, ±Inf — which strconv happily parses) are rejected: they silently
// poison dominance tests otherwise.
func ReadDataset(r io.Reader) (*Dataset, error) {
	ds, err := data.Read(r)
	if err != nil {
		return nil, err
	}
	if err := data.CheckFinite(ds); err != nil {
		return nil, fmt.Errorf("skycube: %v", err)
	}
	return &Dataset{ds: ds}, nil
}

// Write emits the dataset in the text format ReadDataset parses.
func (d *Dataset) Write(w io.Writer) error { return d.ds.Write(w) }

// Len returns the number of points.
func (d *Dataset) Len() int { return d.ds.N }

// Dims returns the dimensionality.
func (d *Dataset) Dims() int { return d.ds.Dims }

// Point returns the coordinates of point id (read-only).
func (d *Dataset) Point(id int) []float32 { return d.ds.Point(id) }

// Distribution selects a synthetic benchmark family (Börzsönyi et al.).
type Distribution = gen.Distribution

// Synthetic distributions, re-exported for workload generation.
const (
	Independent    = gen.Independent
	Correlated     = gen.Correlated
	Anticorrelated = gen.Anticorrelated
)

// GenerateSynthetic produces the standard benchmark workload: n points over
// dims dimensions from dist, deterministic in seed.
func GenerateSynthetic(dist Distribution, n, dims int, seed int64) *Dataset {
	return &Dataset{ds: gen.Synthetic(dist, n, dims, seed)}
}

// RealWorkload names a stand-in for one of the paper's real datasets.
type RealWorkload = gen.RealDataset

// Real workload stand-ins (paper Table 2).
const (
	NBA       = gen.NBA
	Household = gen.Household
	Covertype = gen.Covertype
	Weather   = gen.Weather
)

// GenerateReal synthesises the named real-data stand-in at a scale factor
// in (0, 1]; scale 1 reproduces the published row count.
func GenerateReal(w RealWorkload, scale float64, seed int64) *Dataset {
	return &Dataset{ds: gen.Real(w, scale, seed)}
}

// CSVOptions configure ReadCSVDataset.
type CSVOptions = data.CSVOptions

// Direction states how a raw attribute relates to preference.
type Direction = data.Direction

// Attribute orientations for Normalize.
const (
	// LowerBetter attributes are already in skyline orientation.
	LowerBetter = data.LowerBetter
	// HigherBetter attributes are mirrored during normalisation.
	HigherBetter = data.HigherBetter
)

// ReadCSVDataset parses tabular data — optionally skipping a header row and
// selecting specific columns — into a dataset.
func ReadCSVDataset(r io.Reader, opt CSVOptions) (*Dataset, error) {
	ds, err := data.ReadCSV(r, opt)
	if err != nil {
		return nil, err
	}
	if ds.Dims > MaxDims {
		return nil, fmt.Errorf("skycube: csv has %d dimensions, max %d", ds.Dims, MaxDims)
	}
	if err := data.CheckFinite(ds); err != nil {
		return nil, fmt.Errorf("skycube: %v", err)
	}
	return &Dataset{ds: ds}, nil
}

// Normalize rescales every dimension into [0,1] with smaller-is-better
// orientation, mirroring dimensions marked HigherBetter. dirs may be nil
// (everything already lower-is-better) or must have one entry per
// dimension. Dominance relationships are preserved per dimension, so the
// skycube of the result equals the skycube of the correctly-oriented raw
// data.
func (d *Dataset) Normalize(dirs []Direction) (*Dataset, error) {
	norm, err := data.Normalize(d.ds, dirs)
	if err != nil {
		return nil, err
	}
	return &Dataset{ds: norm}, nil
}

// PartitionMode selects how Partition distributes points across shards.
type PartitionMode = data.PartitionMode

// Partition modes for horizontal sharding.
const (
	// RoundRobinPartition assigns point i to shard i mod k: shard s holds
	// the global ids s, s+k, s+2k, … (id base s, stride k). Every shard sees
	// the same distribution, and the arithmetic mapping stays valid as
	// shards grow.
	RoundRobinPartition = data.RoundRobin
	// AngularPartition cuts equal-count slices by the first hyperspherical
	// angle around the dataset's min corner, which keeps per-slice skylines
	// small on anticorrelated data. Positional id mapping, read-only.
	AngularPartition = data.Angular
)

// Partition splits the dataset into k horizontal shards for scale-out
// serving (internal/cluster): each shard is a standalone dataset whose rows
// keep their global ids through the mode's arithmetic mapping, so the union
// of shard-local skylines — a superset of the global skyline, since a
// globally undominated point is undominated within its shard — merges back
// exactly under one final dominance filter.
func (d *Dataset) Partition(k int, mode PartitionMode) ([]*Dataset, error) {
	parts, err := data.Partition(d.ds, k, mode)
	if err != nil {
		return nil, fmt.Errorf("skycube: %v", err)
	}
	out := make([]*Dataset, len(parts))
	for i, p := range parts {
		out[i] = &Dataset{ds: p}
	}
	return out, nil
}
