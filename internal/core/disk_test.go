package core

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/relation"
)

// Mining a disk-backed source must produce exactly the in-memory result.
func TestMineDiskMatchesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	rel := plantedXY(rng, 150, 15)
	part := relation.SingletonPartitioning(rel.Schema())
	opt := plantedOptions()

	m, err := NewMiner(rel, part, opt)
	if err != nil {
		t.Fatalf("NewMiner: %v", err)
	}
	mem, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine(memory): %v", err)
	}

	disk, err := relation.SpillToDisk(rel, filepath.Join(t.TempDir(), "xy.dar"))
	if err != nil {
		t.Fatalf("SpillToDisk: %v", err)
	}
	md, err := NewMiner(disk, part, opt)
	if err != nil {
		t.Fatalf("NewMiner(disk): %v", err)
	}
	dres, err := md.Mine()
	if err != nil {
		t.Fatalf("Mine(disk): %v", err)
	}

	if len(dres.Rules) != len(mem.Rules) {
		t.Fatalf("rules: %d vs %d", len(dres.Rules), len(mem.Rules))
	}
	for i := range dres.Rules {
		a, b := dres.Rules[i], mem.Rules[i]
		if a.Degree != b.Degree || a.Support != b.Support ||
			!intsEqual(a.Antecedent, b.Antecedent) || !intsEqual(a.Consequent, b.Consequent) {
			t.Fatalf("rule %d differs: %+v vs %+v", i, a, b)
		}
	}
	for i := range dres.Clusters {
		if !reflect.DeepEqual(dres.Clusters[i].Centroid(), mem.Clusters[i].Centroid()) {
			t.Fatalf("cluster %d differs", i)
		}
	}
}

// The paper's IO model, verified literally: the full pipeline costs one
// Phase I scan plus the two optional descriptive rescans; Phase II never
// touches the data.
func TestMineScanCountMatchesPaper(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	rel := plantedXY(rng, 100, 5)
	part := relation.SingletonPartitioning(rel.Schema())

	spill := func() *relation.DiskRelation {
		d, err := relation.SpillToDisk(rel, filepath.Join(t.TempDir(), "scan.dar"))
		if err != nil {
			t.Fatalf("SpillToDisk: %v", err)
		}
		return d
	}

	// Without post-scans: exactly one pass.
	opt := plantedOptions()
	opt.PostScan = false
	d := spill()
	m, _ := NewMiner(d, part, opt)
	if _, err := m.Mine(); err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if d.Scans() != 1 {
		t.Errorf("Phase I+II performed %d scans, want exactly 1", d.Scans())
	}

	// With post-scans: one clustering scan, one descriptive scan, one
	// candidate-support scan.
	opt.PostScan = true
	d = spill()
	m, _ = NewMiner(d, part, opt)
	if _, err := m.Mine(); err != nil {
		t.Fatalf("Mine: %v", err)
	}
	if d.Scans() != 3 {
		t.Errorf("full pipeline performed %d scans, want 3", d.Scans())
	}
}

// Parallel mining over a disk-backed source: the batched ingest pipeline
// keeps Phase I at ONE scan regardless of worker count (the scanning
// goroutine projects once and hands batches to the other lanes), so the total
// is the single Phase I pass plus the two descriptive rescans — the same
// IO as serial mining, unlike the old group-parallel mode that re-read
// the relation once per attribute group. The result still matches the
// serial disk run bit-for-bit.
func TestMineDiskParallelWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	rel := plantedXY(rng, 150, 15)
	part := relation.SingletonPartitioning(rel.Schema())

	mine := func(workers int) (*Result, *relation.DiskRelation) {
		d, err := relation.SpillToDisk(rel, filepath.Join(t.TempDir(), "par.dar"))
		if err != nil {
			t.Fatalf("SpillToDisk: %v", err)
		}
		opt := plantedOptions()
		opt.Workers = workers
		m, err := NewMiner(d, part, opt)
		if err != nil {
			t.Fatalf("NewMiner: %v", err)
		}
		res, err := m.Mine()
		if err != nil {
			t.Fatalf("Mine(workers=%d): %v", workers, err)
		}
		return res, d
	}

	serial, _ := mine(1)
	par, d := mine(4)
	if !reflect.DeepEqual(serial.Rules, par.Rules) {
		t.Fatalf("parallel disk rules diverged from serial:\n%+v\n%+v", serial.Rules, par.Rules)
	}
	if want := 3; d.Scans() != want {
		t.Errorf("parallel pipeline performed %d scans, want %d (one ingest pass + 2 rescans)", d.Scans(), want)
	}
}
