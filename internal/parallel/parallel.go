// Package parallel is the miner's one ordered fan-out. Phase II's graph
// rows and clique pairs, the threshold advisor's groups and the CSV
// scanner's chunks all run through For, so none of them hand-rolls a
// worker pool. It is a leaf package: internal/relation, which
// internal/core imports, needs it too.
//
// This is one of the files darlint's rawgoroutine analyzer sanctions.
package parallel

import "sync"

// For runs fn(i) for every i in [0, n). With workers <= 1 or n <= 1 it
// is a plain loop on the calling goroutine, so a serial path and its
// parallel form share their code. With more workers, workers goroutines
// take indices in ascending order from a channel, so an expensive task
// (a dense graph row, a large clique) does not stall a fixed stripe;
// callers clamp workers to n. fn must write only to per-index state;
// merging the results in index order is the caller's job, which is what
// keeps output independent of the worker count.
func For(workers, n int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
