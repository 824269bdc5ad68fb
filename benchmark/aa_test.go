package main

import (
	"math"
	"testing"
)

// quartiles must agree with Python's statistics.quantiles(v, n=4), the
// method the driver uses, also where it extrapolates (two values).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 4, 2, 8, 16, 3, 5, 9, 7}, 2.75, 6, 9.25},
	} {
		q1, q2, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1)+math.Abs(q2-c.q2)+math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
