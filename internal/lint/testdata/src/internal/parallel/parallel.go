// Negative fixture for rawgoroutine: internal/parallel is a sanctioned
// package. It hosts the ordered fan-out (For) that Phase II, the
// threshold advisor and the chunked CSV scan share; callers merge the
// per-index results in index order, so the goroutines it starts cannot
// leak scheduling order into results.
package parallel

import "sync"

func For(workers, n int, fn func(int)) {
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
