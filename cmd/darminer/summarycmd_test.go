package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	dar "repro"
	"repro/internal/summary"
)

// goldenIngestCfg is the fixed ingest configuration the committed
// .acfsum golden was recorded under.
func goldenIngestCfg(out string) ingestConfig {
	return ingestConfig{d0: 5, workers: 1, out: out}
}

// goldenQueryCfg mirrors goldenCfg's Phase II knobs for the query path.
// Measures are on: the goldens pin the annotated serving contract
// (support bound, confidence, lift, conviction on every rule), and —
// because the .acfsum codec predates the measures and is unchanged —
// double as the back-compat proof that old summary files answer
// measure-annotated queries.
func goldenQueryCfg(workers int) queryConfig {
	return queryConfig{minsup: 0.2, degree: 1, metric: "D2", workers: workers, measures: true}
}

// ruleLines extracts just the rule lines ("A ⇒ B (degree ...)") from CLI
// output, dropping headers and phase reports.
func ruleLines(out string) []string {
	var rules []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "⇒") {
			rules = append(rules, line)
		}
	}
	return rules
}

// TestGoldenSummaryFile checks that a fresh ingest of the committed
// interval input reproduces the committed .acfsum byte for byte — the
// on-disk format is part of the CLI contract. Regenerate with
// `go test ./cmd/darminer -run TestGoldenSummaryFile -update` after an
// intentional format change (and bump the codec version).
func TestGoldenSummaryFile(t *testing.T) {
	input := filepath.Join("testdata", "interval_input.csv")
	goldenPath := filepath.Join("testdata", "golden_summary.acfsum")

	fresh := filepath.Join(t.TempDir(), "fresh.acfsum")
	var buf bytes.Buffer
	if err := runIngest(&buf, input, goldenIngestCfg(fresh)); err != nil {
		t.Fatalf("runIngest: %v", err)
	}
	got, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}

	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden summary (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ingest output diverged from committed golden: %d vs %d bytes", len(got), len(want))
	}
}

// TestGoldenQuerySummary checks `darminer query` against a committed
// golden transcript at every worker count.
func TestGoldenQuerySummary(t *testing.T) {
	goldenSum := filepath.Join("testdata", "golden_summary.acfsum")
	goldenPath := filepath.Join("testdata", "golden_query_rules.txt")

	if *updateGolden {
		var buf bytes.Buffer
		if err := runQuery(&buf, goldenSum, goldenQueryCfg(1)); err != nil {
			t.Fatalf("runQuery(serial): %v", err)
		}
		if err := os.WriteFile(goldenPath, []byte(stripTimings(buf.String())), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !strings.Contains(string(golden), "⇒") {
		t.Fatalf("golden file holds no rules; the comparison is vacuous:\n%s", golden)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		var buf bytes.Buffer
		if err := runQuery(&buf, goldenSum, goldenQueryCfg(workers)); err != nil {
			t.Fatalf("runQuery(workers=%d): %v", workers, err)
		}
		if got := stripTimings(buf.String()); got != string(golden) {
			t.Errorf("workers=%d query diverged from golden:\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, golden)
		}
	}
}

// TestGoldenQueryJSON checks `darminer query -json` against a committed
// golden transcript — the machine-readable twin of the rule-text golden
// above, and the document the dard server serves byte-for-byte. The
// wall-clock lines ("durationMs") are stripped on both sides; worker
// counts 1 and 4 must render identically. Regenerate with -update.
func TestGoldenQueryJSON(t *testing.T) {
	goldenSum := filepath.Join("testdata", "golden_summary.acfsum")
	goldenPath := filepath.Join("testdata", "golden_query_rules.json")

	if *updateGolden {
		cfg := goldenQueryCfg(1)
		cfg.asJSON = true
		var buf bytes.Buffer
		if err := runQuery(&buf, goldenSum, cfg); err != nil {
			t.Fatalf("runQuery(serial): %v", err)
		}
		if err := os.WriteFile(goldenPath, []byte(stripTimings(buf.String())), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !strings.Contains(string(golden), `"rules"`) {
		t.Fatalf("golden JSON holds no rules key; the comparison is vacuous:\n%s", golden)
	}
	for _, workers := range []int{1, 4} {
		cfg := goldenQueryCfg(workers)
		cfg.asJSON = true
		var buf bytes.Buffer
		if err := runQuery(&buf, goldenSum, cfg); err != nil {
			t.Fatalf("runQuery(workers=%d): %v", workers, err)
		}
		if got := stripTimings(buf.String()); got != string(golden) {
			t.Errorf("workers=%d JSON diverged from golden:\n--- got ---\n%s\n--- want ---\n%s",
				workers, got, golden)
		}
	}
}

// TestIngestQueryMatchesMine pins the CLI-level differential: the rule
// lines of `ingest | query` must equal those of a one-shot
// `darminer -nopostscan` run over the same data and parameters, on
// interval data and on the golden input's nominal Dept.
func TestIngestQueryMatchesMine(t *testing.T) {
	for _, name := range []string{"interval_input.csv", "golden_input.csv"} {
		input := filepath.Join("testdata", name)

		var mineBuf bytes.Buffer
		cfg := goldenCfg(1)
		cfg.noPostScan = true // the summary path has no relation to rescan
		if err := run(&mineBuf, input, cfg); err != nil {
			t.Fatalf("%s: run(mine): %v", name, err)
		}
		mined := ruleLines(mineBuf.String())
		if len(mined) == 0 {
			t.Fatalf("%s: mine emitted no rules; comparison is vacuous:\n%s", name, mineBuf.String())
		}

		sum := filepath.Join(t.TempDir(), "s.acfsum")
		var buf bytes.Buffer
		if err := runIngest(&buf, input, goldenIngestCfg(sum)); err != nil {
			t.Fatalf("%s: runIngest: %v", name, err)
		}
		buf.Reset()
		qcfg := goldenQueryCfg(1)
		qcfg.measures = false // mine's text output carries no measure suffixes
		if err := runQuery(&buf, sum, qcfg); err != nil {
			t.Fatalf("%s: runQuery: %v", name, err)
		}
		queried := ruleLines(buf.String())

		if strings.Join(queried, "\n") != strings.Join(mined, "\n") {
			t.Errorf("%s: ingest|query rules diverge from mine -nopostscan:\n--- query ---\n%s\n--- mine ---\n%s",
				name, strings.Join(queried, "\n"), strings.Join(mined, "\n"))
		}
	}
}

// TestMergeCLI ingests two shards — with nominal dictionaries built in
// different first-seen orders — merges them, and checks the merged query
// answers exactly like a query over a single-pass ingest of the whole.
func TestMergeCLI(t *testing.T) {
	dir := t.TempDir()
	// Exact integer salaries, so shard sums are order-independent.
	shard1 := "Job:nominal,Salary:interval\nDBA,40000\nDBA,40000\nDBA,40000\nMgr,90000\nMgr,90000\n"
	shard2 := "Job:nominal,Salary:interval\nMgr,90000\nEng,60000\nEng,60000\nDBA,40000\nDBA,40000\n"
	whole := "Job:nominal,Salary:interval\nDBA,40000\nDBA,40000\nDBA,40000\nMgr,90000\nMgr,90000\nMgr,90000\nEng,60000\nEng,60000\nDBA,40000\nDBA,40000\n"
	paths := map[string]string{"shard1.csv": shard1, "shard2.csv": shard2, "whole.csv": whole}
	for name, content := range paths {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	icfg := func(out string) ingestConfig { return ingestConfig{d0: 5, workers: 1, out: out} }
	for _, name := range []string{"shard1", "shard2", "whole"} {
		if err := runIngest(&buf, filepath.Join(dir, name+".csv"), icfg(filepath.Join(dir, name+".acfsum"))); err != nil {
			t.Fatalf("runIngest(%s): %v", name, err)
		}
	}

	merged := filepath.Join(dir, "merged.acfsum")
	buf.Reset()
	err := runMerge(&buf, merged, []string{filepath.Join(dir, "shard1.acfsum"), filepath.Join(dir, "shard2.acfsum")})
	if err != nil {
		t.Fatalf("runMerge: %v", err)
	}
	if !strings.Contains(buf.String(), "10 tuples, 2 shards") {
		t.Errorf("merge report: %s", buf.String())
	}

	qcfg := queryConfig{minsup: 0.15, degree: 1, metric: "D2", workers: 1}
	var mergedOut, wholeOut bytes.Buffer
	if err := runQuery(&mergedOut, merged, qcfg); err != nil {
		t.Fatalf("runQuery(merged): %v", err)
	}
	if err := runQuery(&wholeOut, filepath.Join(dir, "whole.acfsum"), qcfg); err != nil {
		t.Fatalf("runQuery(whole): %v", err)
	}
	mergedRules := ruleLines(mergedOut.String())
	wholeRules := ruleLines(wholeOut.String())
	if len(wholeRules) == 0 {
		t.Fatalf("whole-relation query emitted no rules:\n%s", wholeOut.String())
	}
	if strings.Join(mergedRules, "\n") != strings.Join(wholeRules, "\n") {
		t.Errorf("merged query diverges from single-pass query:\n--- merged ---\n%s\n--- whole ---\n%s",
			strings.Join(mergedRules, "\n"), strings.Join(wholeRules, "\n"))
	}
}

// TestQueryRejectsBadSummaries: corruption fails the checksum, and a
// future format version is refused outright — even with a valid
// checksum — rather than misparsed.
func TestQueryRejectsBadSummaries(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_summary.acfsum"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var buf bytes.Buffer

	corrupt := append([]byte(nil), golden...)
	corrupt[len(corrupt)/2] ^= 0x40
	corruptPath := filepath.Join(dir, "corrupt.acfsum")
	if err := os.WriteFile(corruptPath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runQuery(&buf, corruptPath, goldenQueryCfg(1)); err == nil {
		t.Error("corrupted summary accepted")
	}

	// Bump the version byte and re-seal the CRC so only the version check
	// can reject it.
	future := append([]byte(nil), golden...)
	future[4]++
	binary.LittleEndian.PutUint32(future[len(future)-4:], crc32.ChecksumIEEE(future[:len(future)-4]))
	futurePath := filepath.Join(dir, "future.acfsum")
	if err := os.WriteFile(futurePath, future, 0o644); err != nil {
		t.Fatal(err)
	}
	err = runQuery(&buf, futurePath, goldenQueryCfg(1))
	if !errors.Is(err, summary.ErrVersion) {
		t.Errorf("future version: err = %v, want ErrVersion", err)
	}
}

// TestQueryJSON exercises the JSON output path over a summary whose
// schema — including the nominal dictionary — was reconstructed from the
// file rather than the data.
func TestQueryJSON(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "data.csv")
	content := "Job:nominal,Salary:interval\nDBA,40000\nDBA,40000\nMgr,90000\nMgr,90000\n"
	if err := os.WriteFile(csv, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	sum := filepath.Join(dir, "data.acfsum")
	var buf bytes.Buffer
	if err := runIngest(&buf, csv, ingestConfig{d0: 5, workers: 1, out: sum}); err != nil {
		t.Fatalf("runIngest: %v", err)
	}
	buf.Reset()
	if err := runQuery(&buf, sum, queryConfig{minsup: 0.25, degree: 1, metric: "D2", workers: 1, asJSON: true}); err != nil {
		t.Fatalf("runQuery: %v", err)
	}
	if !strings.Contains(buf.String(), "\"tuples\": 4") {
		t.Errorf("JSON output missing tuple count:\n%s", buf.String())
	}
}

// TestIngestDerivesThresholds covers the -d0 0 advisor path of the
// ingest subcommand.
func TestIngestDerivesThresholds(t *testing.T) {
	input := filepath.Join("testdata", "interval_input.csv")
	out := filepath.Join(t.TempDir(), "auto.acfsum")
	var buf bytes.Buffer
	if err := runIngest(&buf, input, ingestConfig{d0: 0, workers: 1, out: out}); err != nil {
		t.Fatalf("runIngest: %v", err)
	}
	if !strings.Contains(buf.String(), "derived d0 per attribute") {
		t.Errorf("no derivation notice:\n%s", buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dar.DecodeSummary(data); err != nil {
		t.Errorf("derived-threshold summary does not decode: %v", err)
	}
}
