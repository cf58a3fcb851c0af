package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/relation"
)

// cooccurrence counts, for selected cluster pairs, how many tuples are
// assigned to both clusters. Keys are ordered (min ID, max ID).
type cooccurrence map[[2]int]int64

func (co cooccurrence) add(a, b int) {
	if a > b {
		a, b = b, a
	}
	co[[2]int{a, b}]++
}

// set records an absolute joint count, used when counts come from the
// summary histograms rather than incremental rescan tallies.
func (co cooccurrence) set(a, b int, n int64) {
	if a > b {
		a, b = b, a
	}
	co[[2]int{a, b}] = n
}

func (co cooccurrence) get(a, b int) int64 {
	if a > b {
		a, b = b, a
	}
	return co[[2]int{a, b}]
}

// assigner resolves the paper's membership rule (Section 4.3.2: "for each
// point, we can find the centroid closest to the point ... and define the
// tuple to be in the cluster represented by this centroid") against the
// frequent clusters of each group. One-dimensional groups — the common
// case — use binary search over sorted centroids; higher dimensions fall
// back to a linear scan.
type assigner struct {
	part     *relation.Partitioning
	perGroup [][]*Cluster
	// maxDist[g] caps the centroid distance for membership in group g: a
	// tuple farther than this from every frequent centroid belongs to no
	// cluster (it is an irrelevant point). A negative cap means
	// unlimited. Bounding membership keeps outliers from polluting
	// bounding boxes and support counts; for nominal groups the cap is 0,
	// i.e. exact value match (Theorem 5.1).
	maxDist []float64
	// sorted1d[g] holds, for 1-d groups, cluster indices into perGroup[g]
	// ordered by centroid value; centroids1d[g] the matching values.
	sorted1d    [][]int
	centroids1d [][]float64
}

func newAssigner(part *relation.Partitioning, clusters []*Cluster, maxDist []float64) *assigner {
	a := &assigner{
		part:        part,
		perGroup:    make([][]*Cluster, part.NumGroups()),
		maxDist:     maxDist,
		sorted1d:    make([][]int, part.NumGroups()),
		centroids1d: make([][]float64, part.NumGroups()),
	}
	for _, c := range clusters {
		a.perGroup[c.Group] = append(a.perGroup[c.Group], c)
	}
	for g := range a.perGroup {
		if part.Group(g).Dims() != 1 {
			continue
		}
		cs := a.perGroup[g]
		idx := make([]int, len(cs))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(x, y int) bool {
			return cs[idx[x]].Centroid()[0] < cs[idx[y]].Centroid()[0]
		})
		vals := make([]float64, len(idx))
		for k, i := range idx {
			vals[k] = cs[i].Centroid()[0]
		}
		a.sorted1d[g] = idx
		a.centroids1d[g] = vals
	}
	return a
}

// assign returns the nearest frequent cluster of group g to the projected
// point p, or nil when the group has no frequent clusters or the point is
// farther than the membership cap from all of them.
func (a *assigner) assign(g int, p []float64) *Cluster {
	cs := a.perGroup[g]
	if len(cs) == 0 {
		return nil
	}
	limit := -1.0
	if a.maxDist != nil {
		limit = a.maxDist[g]
	}
	if vals := a.centroids1d[g]; vals != nil {
		v := p[0]
		i := sort.SearchFloat64s(vals, v)
		best := -1
		bestD := 0.0
		for _, k := range []int{i - 1, i} {
			if k < 0 || k >= len(vals) {
				continue
			}
			d := v - vals[k]
			if d < 0 {
				d = -d
			}
			if best == -1 || d < bestD {
				best, bestD = k, d
			}
		}
		if limit >= 0 && bestD > limit {
			return nil
		}
		return cs[a.sorted1d[g][best]]
	}
	best, bestD := -1, 0.0
	for i, c := range cs {
		cen := c.Centroid()
		var d float64
		for k := range p {
			dv := p[k] - cen[k]
			d += dv * dv
		}
		if best == -1 || d < bestD {
			best, bestD = i, d
		}
	}
	if limit >= 0 && bestD > limit*limit {
		return nil
	}
	return cs[best]
}

// PostScanStats reports on the optional rescans of Section 6.2.
type PostScanStats struct {
	// Duration covers the box/co-occurrence scan.
	Duration time.Duration
	// SupportDuration covers the candidate-rule support scan.
	SupportDuration time.Duration
}

// postScan performs the descriptive rescan: exact bounding boxes, exact
// per-cluster sizes under nearest-centroid membership, and co-occurrence
// counts between clusters of nominal groups and all other groups (the
// counts Theorem 5.2's discrete distances need).
func (m *Miner) postScan(clusters []*Cluster, nominal []bool) (*assigner, cooccurrence, error) {
	asn := newAssigner(m.part, clusters, m.membershipCaps(nominal))
	co := make(cooccurrence)

	var nominalGroups []int
	for g, isNom := range nominal {
		if isNom {
			nominalGroups = append(nominalGroups, g)
		}
	}

	for _, c := range clusters {
		c.Size = 0
		c.Lo, c.Hi = nil, nil
	}

	groups := m.part.NumGroups()
	proj := make([][]float64, groups)
	for g := range proj {
		proj[g] = make([]float64, m.part.Group(g).Dims())
	}
	assigned := make([]*Cluster, groups)
	err := m.rel.Scan(func(_ int, tuple []float64) error {
		for g := 0; g < groups; g++ {
			m.part.Project(g, tuple, proj[g])
			c := asn.assign(g, proj[g])
			assigned[g] = c
			if c == nil {
				continue
			}
			c.Size++
			if c.Lo == nil {
				c.Lo = append([]float64(nil), proj[g]...)
				c.Hi = append([]float64(nil), proj[g]...)
			} else {
				for k, v := range proj[g] {
					if v < c.Lo[k] {
						c.Lo[k] = v
					}
					if v > c.Hi[k] {
						c.Hi[k] = v
					}
				}
			}
		}
		for _, ng := range nominalGroups {
			cn := assigned[ng]
			if cn == nil {
				continue
			}
			for g := 0; g < groups; g++ {
				// co keys are unordered, so a pair of nominal groups is
				// counted from the lower group's side only.
				if g == ng || assigned[g] == nil || nominal[g] && g < ng {
					continue
				}
				co.add(cn.ID, assigned[g].ID)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: post scan: %w", err)
	}
	for _, c := range clusters {
		c.BoxExact = c.Lo != nil
		if c.Lo == nil {
			c.approxBox()
		}
	}
	return asn, co, nil
}

// countRuleSupport performs the paper's optional final rescan ("we can
// rescan the data (once) and count the frequency of all candidate rules").
// Each rule is indexed under its smallest cluster so a rule is only
// checked against tuples assigned to that cluster.
func (m *Miner) countRuleSupport(rules []Rule, clusters []*Cluster, asn *assigner) error {
	if len(rules) == 0 {
		return nil
	}
	type ruleRef struct {
		idx      int
		clusters []int // all cluster IDs of the rule
	}
	byCluster := make(map[int][]ruleRef)
	for i := range rules {
		all := append(append([]int(nil), rules[i].Antecedent...), rules[i].Consequent...)
		rarest, rarestN := all[0], clusters[all[0]].Size
		for _, id := range all[1:] {
			if clusters[id].Size < rarestN {
				rarest, rarestN = id, clusters[id].Size
			}
		}
		byCluster[rarest] = append(byCluster[rarest], ruleRef{idx: i, clusters: all})
		rules[i].Support = 0
	}

	groups := m.part.NumGroups()
	proj := make([][]float64, groups)
	for g := range proj {
		proj[g] = make([]float64, m.part.Group(g).Dims())
	}
	assigned := make([]int, groups) // cluster ID per group, -1 if none
	err := m.rel.Scan(func(_ int, tuple []float64) error {
		for g := 0; g < groups; g++ {
			m.part.Project(g, tuple, proj[g])
			if c := asn.assign(g, proj[g]); c != nil {
				assigned[g] = c.ID
			} else {
				assigned[g] = -1
			}
		}
		for g := 0; g < groups; g++ {
			if assigned[g] < 0 {
				continue
			}
			for _, ref := range byCluster[assigned[g]] {
				match := true
				for _, id := range ref.clusters {
					if assigned[clusters[id].Group] != id {
						match = false
						break
					}
				}
				if match {
					rules[ref.idx].Support++
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: support scan: %w", err)
	}
	n := float64(m.rel.Len())
	for i := range rules {
		rules[i].SupportFraction = float64(rules[i].Support) / n
	}
	return nil
}
