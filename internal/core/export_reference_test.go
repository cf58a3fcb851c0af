package core

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/relation"
)

// The references WriteJSON and the append description formatter are
// checked against: the fmt formatters and the Export → encoding/json
// path they replaced, kept verbatim as test code.

// describeReference is Cluster.Describe as fmt rendered it.
func describeReference(c *Cluster, rel relation.Source, part *relation.Partitioning) string {
	g := part.Group(c.Group)
	var b strings.Builder
	for k, attr := range g.Attrs {
		if k > 0 {
			b.WriteString(" ∧ ")
		}
		name := rel.Schema().Attr(attr).Name
		if rel.Schema().Attr(attr).Kind == relation.Nominal {
			fmt.Fprintf(&b, "%s = %s", name, rel.Schema().FormatValue(attr, c.Centroid()[k]))
			continue
		}
		if c.Lo == nil || c.Hi == nil {
			fmt.Fprintf(&b, "%s ≈ %.5g", name, c.Centroid()[k])
			continue
		}
		fmt.Fprintf(&b, "%s ∈ [%.5g, %.5g]", name, c.Lo[k], c.Hi[k])
	}
	return b.String()
}

// ruleSignatureReference is RuleSignature as fmt rendered it.
func ruleSignatureReference(res *Result, r Rule, rel relation.Source, part *relation.Partitioning) string {
	var b strings.Builder
	for i, id := range r.Antecedent {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(describeReference(res.Clusters[id], rel, part))
	}
	b.WriteString(" ⇒ ")
	for i, id := range r.Consequent {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(describeReference(res.Clusters[id], rel, part))
	}
	return b.String()
}

// describeRuleReference is Result.DescribeRule as fmt rendered it.
func describeRuleReference(res *Result, r Rule, rel relation.Source, part *relation.Partitioning) string {
	var b strings.Builder
	b.WriteString(ruleSignatureReference(res, r, rel, part))
	fmt.Fprintf(&b, " (degree %.3f", r.Degree)
	if r.Support >= 0 {
		fmt.Fprintf(&b, ", support %d", r.Support)
	}
	b.WriteString(")")
	return b.String()
}

// exportReference converts a Result into its ExportedResult document,
// as the Export function WriteJSON once marshalled did.
func exportReference(res *Result, rel relation.Source, part *relation.Partitioning) ExportedResult {
	out := ExportedResult{
		Tuples: res.PhaseI.TuplesScanned,
		PhaseI: ExportedPhaseI{
			DurationMS:    float64(res.PhaseI.Duration.Microseconds()) / 1000,
			ClustersFound: res.PhaseI.ClustersFound,
			Frequent:      res.PhaseI.FrequentClusters,
			Rebuilds:      res.PhaseI.Rebuilds,
			Bytes:         res.PhaseI.Bytes,
		},
		PhaseII: ExportedPhaseII{
			DurationMS: float64(res.PhaseII.Duration.Microseconds()) / 1000,
			GraphNodes: res.PhaseII.GraphNodes,
			GraphEdges: res.PhaseII.GraphEdges,
			Cliques:    res.PhaseII.Cliques,
		},
	}
	for _, c := range res.Clusters {
		out.Clusters = append(out.Clusters, ExportedCluster{
			ID:          c.ID,
			Group:       part.Group(c.Group).Name,
			Description: describeReference(c, rel, part),
			Size:        c.Size,
			Centroid:    c.Centroid(),
			Lo:          c.Lo,
			Hi:          c.Hi,
			Diameter:    c.Diameter(),
			BoxExact:    c.BoxExact,
		})
	}
	for _, r := range res.Rules {
		out.Rules = append(out.Rules, ExportedRule{
			Antecedent:  r.Antecedent,
			Consequent:  r.Consequent,
			Description: describeRuleReference(res, r, rel, part),
			Degree:      r.Degree,
			Support:     r.Support,
			Measures:    r.Measures,
		})
	}
	out.Sweep = res.Sweep
	return out
}

// writeJSONReference is WriteJSON as encoding/json rendered it.
func writeJSONReference(w io.Writer, res *Result, rel relation.Source, part *relation.Partitioning) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(exportReference(res, rel, part)); err != nil {
		return fmt.Errorf("core: encoding result: %w", err)
	}
	return nil
}
