package stats

import (
	"fmt"
	"math"
)

// Estimate is a value with a 95% confidence half-width over N
// replications, the unit of an A-vs-B comparison.
type Estimate struct {
	Mean float64
	Half float64 // 95% confidence half-width (0 when N < 2)
	N    int
}

// String renders "12.34 ±2.1%" (the half-width as a percentage of the
// mean), or just the mean when there is no interval.
func (e Estimate) String() string {
	if e.N < 2 || e.Mean == 0 || e.Half == 0 {
		return fmt.Sprintf("%.2f", e.Mean)
	}
	return fmt.Sprintf("%.2f ±%.1f%%", e.Mean, 100*e.Half/math.Abs(e.Mean))
}
