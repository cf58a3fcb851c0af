package parallel

import (
	"sync/atomic"
	"testing"
)

// TestForVisitsEveryIndexOnce: at any worker count, For calls fn once
// for each index in [0, n) and returns only after the last call.
func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			hits := make([]atomic.Int32, n)
			For(workers, n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}
