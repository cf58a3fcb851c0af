package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/summary"
)

func TestStripDurations(t *testing.T) {
	in := "{\n  \"tuples\": 5,\n  \"phaseI\": {\n    \"durationMs\": 0,\n    \"bytes\": 7\n  },\n  \"phaseII\": {\n    \"durationMs\": 12.345,\n    \"cliques\": 3\n  }\n}\n"
	want := "{\n  \"tuples\": 5,\n  \"phaseI\": {\n    \"bytes\": 7\n  },\n  \"phaseII\": {\n    \"cliques\": 3\n  }\n}\n"
	if got := string(stripDurations([]byte(in))); got != want {
		t.Errorf("stripDurations:\n%s\nwant:\n%s", got, want)
	}
	other := strings.Replace(in, "12.345", "99.1", 1)
	if string(stripDurations([]byte(other))) != want {
		t.Error("bodies differing only in durationMs strip differently")
	}
	if got := string(stripDurations([]byte("{\"a\": 1}"))); got != "{\"a\": 1}" {
		t.Errorf("a body without timings changed: %q", got)
	}
}

// tinySummary ingests a small WBCD-like relation in process.
func tinySummary(t *testing.T, seed int64) *summary.Summary {
	t.Helper()
	csv, err := wbcdCSV(1500, seed)
	if err != nil {
		t.Fatal(err)
	}
	sum, _, err := ingestReference(csv, 0, untimed)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestWrongReferenceCountsFailures shows the output check has teeth:
// served bodies verified against the right artifact pass, and the same
// bodies verified against a different artifact count as failures.
func TestWrongReferenceCountsFailures(t *testing.T) {
	right, wrong := tinySummary(t, 1), tinySummary(t, 2)
	body, _, err := renderQuery(right, core.DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{out: io.Discard}
	log := newBodyLog()
	for i := 0; i < 3; i++ {
		log.record(bodyKey{"s", -1}, body)
	}
	b.verifyQueries(log, map[string]*summary.Summary{"s": right})
	if b.failed.Load() != 0 {
		t.Fatalf("right reference: %d failures", b.failed.Load())
	}
	b.verifyQueries(log, map[string]*summary.Summary{"s": wrong})
	if got := b.failed.Load(); got != 3 {
		t.Fatalf("wrong reference: %d failures, want 3 (one per served body)", got)
	}
}
