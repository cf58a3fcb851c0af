package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/relation"
)

// Rule-diff between two mined results — drift detection between two
// versions of a summary (yesterday's ingest vs today's, one shard vs
// the merged fleet). Rules carry cluster IDs that are meaningless
// across summaries, so matching happens on rendered signatures: the
// cluster descriptions (group names plus value boxes at %.5g, exactly
// what DescribeRule prints) joined over the rule shape. The rendering
// deliberately goes through each summary's own schema, so nominal codes
// assigned in different first-seen orders still compare by value.

// DiffEntry is a rule present on only one side of a diff.
type DiffEntry struct {
	// Signature is the rendered rule ("Age ∈ [41, 47] ⇒ Salary ∈ …").
	Signature string `json:"signature"`
	// Degree is the rule's degree on the side it exists on.
	Degree float64 `json:"degree"`
}

// DiffChange is a rule present on both sides with a different degree.
type DiffChange struct {
	Signature string  `json:"signature"`
	OldDegree float64 `json:"oldDegree"`
	NewDegree float64 `json:"newDegree"`
}

// RuleDiff is the outcome of DiffRules. The entry slices are sorted by
// signature, so the document is deterministic for deterministic inputs.
type RuleDiff struct {
	// OldTuples and NewTuples record each side's relation size.
	OldTuples int `json:"oldTuples"`
	NewTuples int `json:"newTuples"`
	// Added holds rules only the new side mines; Removed, only the old.
	Added   []DiffEntry `json:"added"`
	Removed []DiffEntry `json:"removed"`
	// Changed holds rules both sides mine at different degrees.
	Changed []DiffChange `json:"changed"`
	// Unchanged counts rules identical on both sides.
	Unchanged int `json:"unchanged"`
}

// RuleSignature renders the stable matching key of one rule: cluster
// descriptions joined with the rule arrow, no degree suffix. Two rules
// from different summaries match when their signatures agree.
func RuleSignature(res *Result, r Rule, rel relation.Source, part *relation.Partitioning) string {
	return string(appendSignature(nil, r, res.describer(rel.Schema(), part)))
}

// signatureDegrees collapses a result to signature → degree. Should two
// rules render identically (possible when distinct cluster pairs share
// a description), the strongest (lowest-degree) wins: rules arrive
// sorted ascending, so first-wins is strongest-wins.
func signatureDegrees(res *Result, rel relation.Source, part *relation.Partitioning) map[string]float64 {
	m := make(map[string]float64, len(res.Rules))
	for _, r := range res.Rules {
		sig := RuleSignature(res, r, rel, part)
		if _, seen := m[sig]; !seen {
			m[sig] = r.Degree
		}
	}
	return m
}

// DiffRules compares two mined results, matching rules by signature.
// Each side renders through its own source and partitioning (they may
// come from different summaries whose nominal dictionaries disagree).
func DiffRules(oldRes, newRes *Result, oldRel, newRel relation.Source, oldPart, newPart *relation.Partitioning) RuleDiff {
	oldSigs := signatureDegrees(oldRes, oldRel, oldPart)
	newSigs := signatureDegrees(newRes, newRel, newPart)

	d := RuleDiff{
		OldTuples: oldRes.PhaseI.TuplesScanned,
		NewTuples: newRes.PhaseI.TuplesScanned,
	}
	for sig, deg := range newSigs {
		oldDeg, ok := oldSigs[sig]
		switch {
		case !ok:
			d.Added = append(d.Added, DiffEntry{Signature: sig, Degree: deg})
		case oldDeg != deg:
			d.Changed = append(d.Changed, DiffChange{Signature: sig, OldDegree: oldDeg, NewDegree: deg})
		default:
			d.Unchanged++
		}
	}
	for sig, deg := range oldSigs {
		if _, ok := newSigs[sig]; !ok {
			d.Removed = append(d.Removed, DiffEntry{Signature: sig, Degree: deg})
		}
	}
	sort.Slice(d.Added, func(i, j int) bool { return d.Added[i].Signature < d.Added[j].Signature })
	sort.Slice(d.Removed, func(i, j int) bool { return d.Removed[i].Signature < d.Removed[j].Signature })
	sort.Slice(d.Changed, func(i, j int) bool { return d.Changed[i].Signature < d.Changed[j].Signature })
	return d
}

// WriteDiffJSON renders a diff as indented JSON — the exact bytes
// `darminer diff -json` prints and the dard diff endpoint serves (the
// CLI ≡ server differential covers this document like the query one).
func WriteDiffJSON(w io.Writer, d RuleDiff) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("core: encoding diff: %w", err)
	}
	return nil
}
