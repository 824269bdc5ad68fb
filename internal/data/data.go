// Package data defines the in-memory dataset representation shared by every
// algorithm: a row-major float32 matrix with implicit point ids.
//
// Row-major layout matches the paper's design discussion (§6.1): dominance
// tests read a point's coordinates from contiguous cache lines, and the GPU
// specialisations rely on consecutive threads touching consecutive
// addresses for coalescing. Smaller values are better on every dimension
// (WLOG, per the paper's footnote 2).
//
// The Dataset is the storage format, not the only one algorithms read. The
// Hybrid engine (internal/skyline) stages each cuboid once as a point-major
// copy of its rows projected onto δ, in ascending (δ-sum, row) order
// (SumOrderInto), and reads that copy instead of the rows; the block kernels
// read the column-major Blocks below.
package data

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"skycube/internal/mask"
)

// Dataset is an immutable set of n points over d dimensions.
type Dataset struct {
	Dims int
	N    int
	// Vals holds the coordinates row-major: point i's value on dimension j
	// is Vals[i*Dims+j].
	Vals []float32
	// IDs maps row index to the external point id. For generated data this
	// is the identity; subset views (extended skylines) retain the original
	// ids so results are comparable across representations.
	IDs []int32
}

// New creates a dataset from a row-major value slice, assigning identity
// ids. It panics if len(vals) is not a multiple of d, as that is always a
// programming error.
func New(d int, vals []float32) *Dataset {
	if d <= 0 || d > mask.MaxDims {
		panic(fmt.Sprintf("data: dimensionality %d out of range [1,%d]", d, mask.MaxDims))
	}
	if len(vals)%d != 0 {
		panic(fmt.Sprintf("data: %d values not divisible by d=%d", len(vals), d))
	}
	n := len(vals) / d
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return &Dataset{Dims: d, N: n, Vals: vals, IDs: ids}
}

// FromRows creates a dataset from per-point rows.
func FromRows(rows [][]float32) *Dataset {
	if len(rows) == 0 {
		panic("data: FromRows needs at least one row")
	}
	d := len(rows[0])
	vals := make([]float32, 0, len(rows)*d)
	for i, r := range rows {
		if len(r) != d {
			panic(fmt.Sprintf("data: row %d has %d values, want %d", i, len(r), d))
		}
		vals = append(vals, r...)
	}
	return New(d, vals)
}

// Point returns the coordinates of row i as a slice aliasing the backing
// array. Callers must not modify it.
func (ds *Dataset) Point(i int) []float32 {
	return ds.Vals[i*ds.Dims : (i+1)*ds.Dims]
}

// Value returns point i's coordinate on dimension j.
func (ds *Dataset) Value(i, j int) float32 {
	return ds.Vals[i*ds.Dims+j]
}

// Subset returns a new dataset containing the given rows (by row index),
// preserving their external ids. The coordinate data is copied so the
// subset is compact and cache-friendly, matching the paper's use of the
// extended skyline as a reduced input.
func (ds *Dataset) Subset(rows []int) *Dataset {
	d := ds.Dims
	vals := make([]float32, len(rows)*d)
	ids := make([]int32, len(rows))
	for k, r := range rows {
		copy(vals[k*d:(k+1)*d], ds.Point(r))
		ids[k] = ds.IDs[r]
	}
	return &Dataset{Dims: d, N: len(rows), Vals: vals, IDs: ids}
}

// Clone returns a deep copy.
func (ds *Dataset) Clone() *Dataset {
	vals := make([]float32, len(ds.Vals))
	copy(vals, ds.Vals)
	ids := make([]int32, len(ds.IDs))
	copy(ids, ds.IDs)
	return &Dataset{Dims: ds.Dims, N: ds.N, Vals: vals, IDs: ids}
}

// Write emits the dataset in the whitespace-separated text format used by
// the standard skyline benchmark generator: one point per line.
func (ds *Dataset) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < ds.N; i++ {
		p := ds.Point(i)
		for j, v := range p {
			if j > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(float64(v), 'g', -1, 32)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the text format produced by Write: one point per line,
// whitespace-separated values. Blank lines and lines starting with '#' are
// skipped. All points must have the same dimensionality.
func Read(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var vals []float32
	d := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if d == 0 {
			d = len(fields)
			if d > mask.MaxDims {
				return nil, fmt.Errorf("data: line %d: %d dimensions exceeds max %d", line, d, mask.MaxDims)
			}
		} else if len(fields) != d {
			return nil, fmt.Errorf("data: line %d: %d values, want %d", line, len(fields), d)
		}
		for _, f := range fields {
			v, err := strconv.ParseFloat(f, 32)
			if err != nil {
				return nil, fmt.Errorf("data: line %d: %v", line, err)
			}
			vals = append(vals, float32(v))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if d == 0 {
		return nil, fmt.Errorf("data: empty input")
	}
	return New(d, vals), nil
}
