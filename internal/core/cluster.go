package core

import (
	"strconv"

	"repro/internal/cf"
	"repro/internal/distance"
	"repro/internal/relation"
)

// Cluster is a frequent cluster discovered in Phase I — a 1-itemset in the
// paper's analogy (Theorem 5.1). It is described by its ACF summary;
// bounding boxes are exact when the post-scan ran and are otherwise
// approximated from the centroid and radius.
type Cluster struct {
	// ID is the cluster's index in Result.Clusters; rules refer to
	// clusters by ID.
	ID int
	// Group is the attribute group the cluster is formed over.
	Group int
	// ACF is the cluster's association clustering feature.
	ACF *cf.ACF
	// Lo and Hi describe the cluster's bounding box on its own group
	// (Section 7.2's preferred cluster description). Exact after a
	// post-scan; approximated as centroid ± 2·radius otherwise.
	Lo, Hi []float64
	// BoxExact records whether Lo/Hi came from a post-scan.
	BoxExact bool
	// Size is the number of tuples assigned to the cluster by the
	// post-scan; equal to ACF.N when no post-scan ran. (The two can
	// differ because BIRCH assignment is local and incremental —
	// Section 4.3.2 discusses exactly this.)
	Size int64
}

// N returns the number of tuples summarized by the cluster's ACF.
func (c *Cluster) N() int64 { return c.ACF.N }

// Centroid returns the cluster centroid on its own group.
func (c *Cluster) Centroid() []float64 { return c.ACF.Centroid() }

// Diameter returns the cluster diameter on its own group.
func (c *Cluster) Diameter() float64 { return c.ACF.Diameter() }

// Image returns the summary of the cluster's image on group g.
func (c *Cluster) Image(g int) distance.Summary { return c.ACF.Image(g) }

// approxBox fills Lo/Hi as centroid ± 2·radius, the summary-only estimate
// used when no post-scan is available.
func (c *Cluster) approxBox() {
	cen := c.Centroid()
	r := c.ACF.OwnSummary().Radius()
	c.Lo = make([]float64, len(cen))
	c.Hi = make([]float64, len(cen))
	for i, v := range cen {
		c.Lo[i] = v - 2*r
		c.Hi[i] = v + 2*r
	}
}

// Describe renders the cluster like "Salary ∈ [80000, 82000]" using the
// partitioning's group names and the source's value formatting.
func (c *Cluster) Describe(rel relation.Source, part *relation.Partitioning) string {
	return string(c.appendDescription(nil, rel.Schema(), part))
}

// appendDescription appends the cluster's description (Section 7.2) to
// b: one "name ∈ [lo, hi]" term per attribute of its group, joined by
// " ∧ ", with bounds at 5 significant digits (strconv's 'g' at precision
// 5, which is fmt's %.5g). A nominal attribute reads "name = value"; an
// interval attribute without a box reads "name ≈ centroid". Text output,
// diff signatures and the JSON document all describe clusters here.
func (c *Cluster) appendDescription(b []byte, schema *relation.Schema, part *relation.Partitioning) []byte {
	ls, n := c.ACF.LS[c.ACF.Own], float64(c.ACF.N)
	for k, attr := range part.Group(c.Group).Attrs {
		if k > 0 {
			b = append(b, " ∧ "...)
		}
		a := schema.Attr(attr)
		b = append(b, a.Name...)
		switch {
		case a.Kind == relation.Nominal:
			// A nominal cluster is single-valued (Theorem 5.1 regime);
			// its centroid is the value's code.
			b = append(b, " = "...)
			b = append(b, schema.FormatValue(attr, ls[k]/n)...)
		case c.Lo == nil || c.Hi == nil:
			b = append(b, " ≈ "...)
			b = strconv.AppendFloat(b, ls[k]/n, 'g', 5, 64)
		default:
			b = append(b, " ∈ ["...)
			b = strconv.AppendFloat(b, c.Lo[k], 'g', 5, 64)
			b = append(b, ", "...)
			b = strconv.AppendFloat(b, c.Hi[k], 'g', 5, 64)
			b = append(b, ']')
		}
	}
	return b
}
