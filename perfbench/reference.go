package main

import (
	"bytes"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/summary"
)

// stepFn brackets one call into a layer; the traced replay records a
// span per call, the output checks record nothing.
type stepFn func(name string) (done func())

func untimed(string) func() { return func() {} }

// ingestReference repeats, through the layers' public functions, what
// dard's ingest handler does with a CSV body: parse, derive per-group
// thresholds, run Phase I on every core, encode.
func ingestReference(csv []byte, memory int, step stepFn) (*summary.Summary, []byte, error) {
	done := step("relation.read_csv")
	rel, err := relation.ReadCSV(bytes.NewReader(csv))
	done()
	if err != nil {
		return nil, nil, err
	}
	return ingestRelation(rel, memory, nil, runtime.GOMAXPROCS(0), step)
}

func ingestOptions(memory int, d0s []float64, workers int) core.Options {
	opt := core.DefaultOptions()
	opt.DiameterThreshold = 0
	opt.MemoryLimit = memory
	opt.Workers = workers
	opt.DiameterThresholds = d0s
	return opt
}

// ingestRelation is ingestReference after the parse. Pinned d0s skip
// the threshold advisor, as a darc shard does. Phase I output is
// bit-identical at any worker count, so checks may pick their own.
func ingestRelation(rel *relation.Relation, memory int, d0s []float64, workers int, step stepFn) (*summary.Summary, []byte, error) {
	part, err := relation.ParseGroupsSpec(rel.Schema(), "")
	if err != nil {
		return nil, nil, err
	}
	if d0s == nil {
		done := step("core.suggest_thresholds")
		d0s, err = core.SuggestThresholds(rel, part, core.AdvisorOptions{})
		done()
		if err != nil {
			return nil, nil, err
		}
	}
	done := step("core.ingest")
	sum, err := core.Ingest(rel, part, ingestOptions(memory, d0s, workers))
	done()
	if err != nil {
		return nil, nil, err
	}
	done = step("summary.encode")
	enc, err := summary.Encode(sum)
	done()
	return sum, enc, err
}

// clusterReference repeats a darc cluster ingest in process: darc's
// plan, the shards ingested under the memory budget with the pinned
// thresholds, and darc's fold. DESIGN.md §14 makes the merged bytes a
// pure function of (data, thresholds, shard plan), so they must equal
// what darc installs.
func clusterReference(csv []byte, name string, shards, memory int) (*summary.Summary, []byte, error) {
	d0s, plan, err := planCluster(csv, shards, untimed)
	if err != nil {
		return nil, nil, err
	}
	var artifacts [][]byte
	for _, shardCSV := range plan {
		srel, err := relation.ReadCSV(bytes.NewReader(shardCSV))
		if err != nil {
			return nil, nil, err
		}
		_, a, err := ingestRelation(srel, memory, d0s, runtime.GOMAXPROCS(0), untimed)
		if err != nil {
			return nil, nil, err
		}
		artifacts = append(artifacts, a)
	}
	return foldShards(name, artifacts, untimed)
}

// planCluster is darc's side of a cluster ingest before dispatch: parse
// the relation, derive per-group thresholds over all of it (every shard
// gets them pinned) and cut the shard plan. The plan is perfbench's copy
// of darc's, so it is never timed: the traced replay times darc's plan
// on darc's own spans.
func planCluster(csv []byte, shards int, step stepFn) ([]float64, [][]byte, error) {
	done := step("relation.read_csv")
	rel, err := relation.ReadCSV(bytes.NewReader(csv))
	done()
	if err != nil {
		return nil, nil, err
	}
	part, err := relation.ParseGroupsSpec(rel.Schema(), "")
	if err != nil {
		return nil, nil, err
	}
	done = step("core.suggest_thresholds")
	d0s, err := core.SuggestThresholds(rel, part, core.AdvisorOptions{})
	done()
	if err != nil {
		return nil, nil, err
	}
	plan, err := planShards(rel, shards)
	return d0s, plan, err
}

// foldShards decodes shard artifacts and merges them in shard order
// under darc's provenance IDs, then encodes the result.
func foldShards(name string, artifacts [][]byte, step stepFn) (*summary.Summary, []byte, error) {
	sums := make([]*summary.Summary, len(artifacts))
	ids := make([]string, len(artifacts))
	done := step("summary.decode")
	for i, a := range artifacts {
		s, err := summary.Decode(a)
		if err != nil {
			done()
			return nil, nil, fmt.Errorf("decoding shard %d: %w", i, err)
		}
		sums[i] = s
		ids[i] = fmt.Sprintf("%s/shard-%04d", name, i)
	}
	done()
	done = step("summary.merge_all")
	merged, err := summary.MergeAll(sums, ids)
	done()
	if err != nil {
		return nil, nil, err
	}
	done = step("summary.encode")
	enc, err := summary.Encode(merged)
	done()
	return merged, enc, err
}

// planShards cuts the relation into at most want contiguous row ranges
// of ceil(rows/want) rows and renders each to CSV: a copy of darc's
// unexported shard plan, the reference for the output checks.
func planShards(rel *relation.Relation, want int) ([][]byte, error) {
	rows := rel.Len()
	want = max(1, min(want, rows))
	per := (rows + want - 1) / want
	var out [][]byte
	for start := 0; start < rows; start += per {
		sub := relation.NewRelation(rel.Schema())
		for i := start; i < min(start+per, rows); i++ {
			if err := sub.Append(rel.Tuple(i)); err != nil {
				return nil, err
			}
		}
		var buf bytes.Buffer
		if err := relation.WriteCSV(&buf, sub); err != nil {
			return nil, err
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}
