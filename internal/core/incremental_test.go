package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/summary"
)

func TestIncrementalMinerValidation(t *testing.T) {
	if _, err := NewIncrementalMiner(nil, DefaultOptions()); err == nil {
		t.Error("nil partitioning accepted")
	}
	s := relation.MustSchema(relation.Attribute{Name: "x"})
	bad := DefaultOptions()
	bad.PostScan = false
	bad.DegreeFactor = 0
	if _, err := NewIncrementalMiner(relation.SingletonPartitioning(s), bad); err == nil {
		t.Error("invalid options accepted")
	}
	// PostScan needs a stored relation; it must be rejected, not
	// silently turned off.
	if _, err := NewIncrementalMiner(relation.SingletonPartitioning(s), DefaultOptions()); err == nil {
		t.Error("PostScan accepted by a miner that cannot rescan")
	}
	// Nominal groups are supported now: ingest-time histograms supply
	// the Theorem 5.2 co-occurrence counts.
	nom := relation.MustSchema(relation.Attribute{Name: "job", Kind: relation.Nominal})
	opt := DefaultOptions()
	opt.PostScan = false
	if _, err := NewIncrementalMiner(relation.SingletonPartitioning(nom), opt); err != nil {
		t.Errorf("nominal group rejected: %v", err)
	}
}

// TestIncrementalMatchesBatch: IncrementalMiner.Add feeds each tuple to
// the same insert kernel Ingest's scan runs (as a batch of one), so over
// the same tuples in the same order its summary must encode to exactly
// Ingest's bytes — at one and several workers, on interval and nominal
// data, and through memory-pressure rebuilds.
func TestIncrementalMatchesBatch(t *testing.T) {
	for _, data := range []struct {
		name string
		rel  *relation.Relation
		d0s  []float64
	}{
		{"plantedXY", plantedXY(rand.New(rand.NewSource(41)), 150, 15), nil},
		{"mixedNominal", mixedNominalRelation(rand.New(rand.NewSource(93)), 600), []float64{0, 0, 4, 5}},
	} {
		part := relation.SingletonPartitioning(data.rel.Schema())
		for _, workers := range []int{1, 4} {
			for _, memory := range []int{0, 4 << 10} {
				t.Run(fmt.Sprintf("%s/workers=%d/memory=%d", data.name, workers, memory), func(t *testing.T) {
					opt := plantedOptions()
					opt.PostScan = false
					opt.DiameterThresholds = data.d0s
					opt.Workers = workers
					opt.MemoryLimit = memory
					batch, err := Ingest(data.rel, part, opt)
					if err != nil {
						t.Fatalf("Ingest: %v", err)
					}
					inc, err := NewIncrementalMiner(part, opt)
					if err != nil {
						t.Fatalf("NewIncrementalMiner: %v", err)
					}
					// Summaries taken mid-stream, at counts that split
					// the ingester's 256-row batches, must equal Ingest
					// over the same prefix and must not disturb the rest
					// of the stream.
					if err := data.rel.Scan(func(i int, tuple []float64) error {
						if i == 100 || i == 299 || i == 555 {
							assertPrefixSummary(t, inc, data.rel, part, opt, i)
						}
						return inc.Add(tuple)
					}); err != nil {
						t.Fatalf("Add: %v", err)
					}
					if inc.Seen() != data.rel.Len() {
						t.Errorf("Seen = %d, want %d", inc.Seen(), data.rel.Len())
					}
					stream, err := inc.Summary()
					if err != nil {
						t.Fatalf("Summary: %v", err)
					}
					want, err := summary.Encode(batch)
					if err != nil {
						t.Fatalf("Encode batch: %v", err)
					}
					got, err := summary.Encode(stream)
					if err != nil {
						t.Fatalf("Encode incremental: %v", err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("incremental summary (%d B) differs from Ingest's (%d B)", len(got), len(want))
					}
					rebuilds := 0
					for _, g := range batch.Groups {
						rebuilds += g.Rebuilds
					}
					if memory > 0 && rebuilds == 0 {
						t.Error("the budget forced no rebuild; the memory-pressure case tests nothing")
					}
				})
			}
		}
	}
}

// assertPrefixSummary fails unless inc's summary, after it has seen the
// first n tuples of rel, encodes to the bytes of Ingest over them.
func assertPrefixSummary(t *testing.T, inc *IncrementalMiner, rel *relation.Relation, part *relation.Partitioning, opt Options, n int) {
	t.Helper()
	prefix := relation.NewRelation(rel.Schema())
	for i := 0; i < n; i++ {
		prefix.MustAppend(rel.Tuple(i))
	}
	batch, err := Ingest(prefix, part, opt)
	if err != nil {
		t.Fatalf("Ingest of %d tuples: %v", n, err)
	}
	stream, err := inc.Summary()
	if err != nil {
		t.Fatalf("Summary after %d tuples: %v", n, err)
	}
	want, err := summary.Encode(batch)
	if err != nil {
		t.Fatalf("Encode batch: %v", err)
	}
	got, err := summary.Encode(stream)
	if err != nil {
		t.Fatalf("Encode incremental: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("summary after %d streamed tuples (%d B) differs from Ingest's over them (%d B)", n, len(got), len(want))
	}
}

func TestIncrementalSnapshotDoesNotConsume(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rel := plantedXY(rng, 100, 0)
	part := relation.SingletonPartitioning(rel.Schema())
	opt := plantedOptions()
	opt.PostScan = false

	inc, err := NewIncrementalMiner(part, opt)
	if err != nil {
		t.Fatalf("NewIncrementalMiner: %v", err)
	}
	half := rel.Len() / 2
	for i := 0; i < half; i++ {
		if err := inc.Add(rel.Tuple(i)); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	mid, err := inc.Snapshot()
	if err != nil {
		t.Fatalf("mid Snapshot: %v", err)
	}
	for i := half; i < rel.Len(); i++ {
		if err := inc.Add(rel.Tuple(i)); err != nil {
			t.Fatalf("Add after snapshot: %v", err)
		}
	}
	full, err := inc.Snapshot()
	if err != nil {
		t.Fatalf("full Snapshot: %v", err)
	}
	if full.PhaseI.TuplesScanned != rel.Len() {
		t.Errorf("full snapshot saw %d tuples", full.PhaseI.TuplesScanned)
	}
	var midN, fullN int64
	for _, c := range mid.Clusters {
		midN += c.N()
	}
	for _, c := range full.Clusters {
		fullN += c.N()
	}
	if fullN <= midN {
		t.Errorf("cluster mass did not grow: %d then %d", midN, fullN)
	}
	// Snapshots must be isolated: mutating the first must not be possible
	// through shared ACFs (clusters were cloned).
	mid.Clusters[0].ACF.N = -1
	if full.Clusters[0].ACF.N == -1 {
		t.Error("snapshots share ACF state")
	}
}

func TestIncrementalAddValidation(t *testing.T) {
	s := relation.MustSchema(relation.Attribute{Name: "x"}, relation.Attribute{Name: "y"})
	opt := plantedOptions()
	opt.PostScan = false
	inc, err := NewIncrementalMiner(relation.SingletonPartitioning(s), opt)
	if err != nil {
		t.Fatalf("NewIncrementalMiner: %v", err)
	}
	if err := inc.Add([]float64{1}); err == nil {
		t.Error("short tuple accepted")
	}
}

func TestIncrementalEmptySnapshot(t *testing.T) {
	s := relation.MustSchema(relation.Attribute{Name: "x"})
	opt := plantedOptions()
	opt.PostScan = false
	inc, err := NewIncrementalMiner(relation.SingletonPartitioning(s), opt)
	if err != nil {
		t.Fatalf("NewIncrementalMiner: %v", err)
	}
	res, err := inc.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if len(res.Clusters) != 0 || len(res.Rules) != 0 {
		t.Errorf("empty snapshot = %d clusters, %d rules", len(res.Clusters), len(res.Rules))
	}
}

// BenchmarkIncrementalAdd streams a 20K-tuple WBCD relation (datagen's
// default seed, derived thresholds) through IncrementalMiner.Add and
// takes one Summary, unbudgeted and under a 1 MiB Phase I budget: the
// path whose tuples add buffers into insert batches.
func BenchmarkIncrementalAdd(b *testing.B) {
	cfg := datagen.DefaultWBCDConfig()
	cfg.Tuples = 20000
	rel, err := datagen.WBCDLike(cfg)
	if err != nil {
		b.Fatal(err)
	}
	part := relation.SingletonPartitioning(rel.Schema())
	d0s, err := SuggestThresholds(rel, part, AdvisorOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, mem := range []int{0, 1 << 20} {
		b.Run(fmt.Sprintf("memory=%d", mem), func(b *testing.B) {
			opt := DefaultOptions()
			opt.DiameterThresholds = d0s
			opt.PostScan = false
			opt.MemoryLimit = mem
			for i := 0; i < b.N; i++ {
				inc, err := NewIncrementalMiner(part, opt)
				if err != nil {
					b.Fatal(err)
				}
				if err := rel.Scan(func(_ int, t []float64) error { return inc.Add(t) }); err != nil {
					b.Fatal(err)
				}
				if _, err := inc.Summary(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
