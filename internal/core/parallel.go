package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/cftree"
	"repro/internal/relation"
)

// effectiveWorkers clamps the configured worker count to the number of
// independent tasks: there is never a point in more goroutines than
// tasks, and 0 or 1 configured workers both mean serial execution.
func (o Options) effectiveWorkers(tasks int) int {
	return clampWorkers(o.Workers, tasks)
}

func clampWorkers(w, tasks int) int {
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// batchTuples is the number of projected tuples per pipeline batch: large
// enough to amortize channel handoffs, small enough that a handful of
// in-flight batches stay cache- and memory-cheap.
const batchTuples = 256

// tupleBatch is one unit of pipeline work: up to batchTuples flat
// projection rows, written by the scanning caller and read by every
// lane. rows is an arena recycled for the whole ingest. pending counts
// the lanes still consuming the batch; the last one to finish recycles
// it to the free pool (the atomic decrement plus the channel send order
// the lanes' reads before the caller's next writes).
type tupleBatch struct {
	rows    []float64 // n rows of stride floats each
	n       int
	pending atomic.Int32
}

// stripeAssignment is the pipeline's lane assignment: lane l owns the
// trees {g : g ≡ l (mod lanes)} for the whole ingest. Which lane runs a
// tree moves only wall-clock time — every tree still sees every batch in
// scan order — so any assignment gives bit-identical output.
func stripeAssignment(trees, lanes int) [][]int {
	assign := make([][]int, lanes)
	for l := 0; l < lanes; l++ {
		for g := l; g < trees; g += lanes {
			assign[l] = append(assign[l], g)
		}
	}
	return assign
}

// ingestPipeline is the Phase I scan: ONE pass over rel, batched and
// striped over lanes = min(workers, trees) insert lanes. The caller is
// lane 0: it scans the relation, projects each tuple into a recycled
// batch, hands every full batch to lanes 1…lanes−1 over per-lane
// channels and then inserts it into its own stripe. Lane l applies each
// batch to the trees {g ≡ l mod lanes}, whole batch per tree
// (cftree.InsertFlatBatch), so each tree performs exactly the serial
// insert sequence and the result is bit-identical at any worker count.
// With one lane no goroutine starts and the caller inserts every tree:
// that is the serial scan.
//
// Batches and their row arenas are recycled through the free pool for
// the whole ingest, so steady-state ingest performs no per-batch
// allocation. The caller fills one batch while each spawned lane holds
// at most two (one inserting, one queued in its channel), and every
// lane takes the batches in the same order, so three batches keep the
// scan from ever waiting on the pool; one lane needs just one.
//
// This function hosts the pipeline's goroutines; darlint's rawgoroutine
// rule confines goroutine creation to this file.
func ingestPipeline(rel relation.Source, workers, stride int, trees []*cftree.Tree, project func(tuple, row []float64)) error {
	lanes := clampWorkers(workers, len(trees))
	assign := stripeAssignment(len(trees), lanes)

	numBatches := 1
	if lanes > 1 {
		numBatches = 3
	}
	free := make(chan *tupleBatch, numBatches)
	for i := 0; i < numBatches; i++ {
		free <- &tupleBatch{rows: make([]float64, batchTuples*stride)}
	}
	insert := func(b *tupleBatch, l int) {
		for _, g := range assign[l] {
			trees[g].InsertFlatBatch(b.rows, b.n, stride)
		}
		if b.pending.Add(-1) == 0 {
			free <- b
		}
	}

	chans := make([]chan *tupleBatch, lanes-1) // lane l reads chans[l-1]
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan *tupleBatch, 1)
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for b := range chans[l-1] {
				insert(b, l)
			}
		}(i + 1)
	}

	flush := func(b *tupleBatch) {
		b.pending.Store(int32(lanes))
		for _, ch := range chans {
			ch <- b
		}
		insert(b, 0)
	}

	cur := <-free
	cur.n = 0
	err := rel.Scan(func(_ int, tuple []float64) error {
		project(tuple, cur.rows[cur.n*stride:(cur.n+1)*stride])
		cur.n++
		if cur.n == batchTuples {
			flush(cur)
			cur = <-free
			cur.n = 0
		}
		return nil
	})
	if err == nil && cur.n > 0 {
		flush(cur)
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	return err
}
