package summary_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/summary"
)

// TestEncodeAllocation pins Encode's buffer sizing on a WBCD summary (30
// interval groups, about a thousand clusters): Encode sizes its output
// from the summary's shape and writes it in one allocation, so the bytes
// it allocates stay within 1.25× its output, where growing the buffer by
// append cost about 5×.
func TestEncodeAllocation(t *testing.T) {
	cfg := datagen.DefaultWBCDConfig()
	cfg.Tuples = 20_000
	rel, err := datagen.WBCDLike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := core.DefaultOptions()
	o.DiameterThreshold = 2
	s, err := core.Ingest(rel, relation.SingletonPartitioning(rel.Schema()), o)
	if err != nil {
		t.Fatal(err)
	}
	data, err := summary.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if cap(data) != len(data) {
		t.Errorf("Encode's buffer has capacity %d for %d bytes", cap(data), len(data))
	}

	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := summary.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perEncode := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("Encode: %d B output, %.0f B allocated per call (%.2f×)", len(data), perEncode, perEncode/float64(len(data)))
	if perEncode > 1.25*float64(len(data)) {
		t.Errorf("Encode allocated %.0f B for %d B of output (%.2f×); want at most 1.25×",
			perEncode, len(data), perEncode/float64(len(data)))
	}
}
