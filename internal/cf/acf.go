package cf

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/distance"
)

// ACF is an association clustering feature (Section 6.1): the summary of a
// cluster formed over one attribute group ("own"), extended with the linear
// and square sums of the *same tuples* projected onto every attribute group
// of the partitioning (Eq. 7). Projections are stored for the owning group
// too, so image summaries C[Y] are available uniformly for all Y, including
// Y = X — Dfn 6.1 and Dfn 5.3 need both.
//
// ACFs obey the Additivity Theorem componentwise (the extension claimed in
// Section 6.1): merging two disjoint clusters' ACFs yields the ACF of the
// union.
//
// Layout: NewACF, NewACFTracked and Clone back LS and SS with one
// contiguous []float64 — the per-group LS slices and the SS slice are
// views into it (LS groups in order, then SS). Phase I maintains millions
// of these small dense vectors, so the flat backing cuts the constructor
// to two allocations and keeps the row kernels and Merge on a single cache
// line per small group. The exported fields keep their slice-of-slices
// shape for readers, but the kernels (AddRowOwn, AddRows, Merge) index the
// backing directly and panic on an ACF assembled field by field (a gob
// decode, a struct literal): re-flatten such an ACF with Clone first.
type ACF struct {
	// N is the number of tuples summarized.
	N int64
	// Own is the index of the attribute group the cluster is formed over.
	Own int
	// LS[g] is the per-dimension linear sum of tuples projected on group g.
	LS [][]float64
	// SS[g] is the scalar square sum Σ‖t[g]‖² of tuples projected on g.
	SS []float64
	// NomCounts[g], when non-nil, histograms the exact projected values of
	// the cluster's tuples on group g: key → number of tuples carrying that
	// projection (keys built by EncodeNomKey). Tracking is enabled per
	// group at construction (NewACFTracked) for nominal groups, whose
	// clusters need exact co-occurrence counts (Theorem 5.2) rather than
	// geometric sums. Like LS/SS, the histograms are additive: Merge adds
	// counts key-wise, so summaries built from disjoint shards combine
	// exactly. nil (or a nil slice) means the group is untracked.
	NomCounts []map[string]int64

	// flat is the shared backing array of LS and SS: all LS groups
	// concatenated, then the SS values. nil only for ACFs assembled field
	// by field, which the kernels reject (mustFlat).
	flat []float64
	// uniform records that every group is one-dimensional (so the row
	// index IS the group index), unlocking the tightest AddRows loop.
	uniform bool
	// ownOff caches the offset of the owning group's segment inside a
	// flat projection row (Σ len(LS[g]) for g < Own), so the row kernels
	// do not rescan the shape per call.
	ownOff int
}

// Shape describes the dimensionality of each attribute group of a
// partitioning; Shape[g] is the number of attributes in group g.
type Shape []int

// Dims returns the total dimensionality across all groups.
func (s Shape) Dims() int {
	total := 0
	for _, d := range s {
		total += d
	}
	return total
}

// NewACF returns an empty ACF for a cluster over group own, with
// projection slots for every group in the shape.
func NewACF(shape Shape, own int) *ACF { return NewACFTracked(shape, own, nil) }

// NewACFTracked is NewACF with exact-value tracking enabled for the
// groups where track[g] is true (track may be nil or shorter than the
// shape; missing entries are untracked). Tracked groups histogram every
// tuple's projection in NomCounts.
func NewACFTracked(shape Shape, own int, track []bool) *ACF {
	if own < 0 || own >= len(shape) {
		panic(fmt.Sprintf("cf: own group %d outside shape of %d groups", own, len(shape)))
	}
	total := shape.Dims()
	flat := make([]float64, total+len(shape))
	a := &ACF{
		Own:     own,
		LS:      make([][]float64, len(shape)),
		SS:      flat[total : total+len(shape)],
		flat:    flat,
		uniform: true,
	}
	off := 0
	for g, dims := range shape {
		if g == own {
			a.ownOff = off
		}
		a.uniform = a.uniform && dims == 1
		a.LS[g] = flat[off : off+dims : off+dims]
		off += dims
	}
	for g := range shape {
		if g < len(track) && track[g] {
			if a.NomCounts == nil {
				a.NomCounts = make([]map[string]int64, len(shape))
			}
			a.NomCounts[g] = make(map[string]int64)
		}
	}
	return a
}

// EncodeNomKey packs a projected value vector into the string key used
// by NomCounts: 8 little-endian bytes (IEEE-754 bits) per dimension. The
// encoding is injective, so distinct exact vectors never collide.
func EncodeNomKey(vals []float64) string {
	return string(AppendNomKey(nil, vals))
}

// AppendNomKey appends the EncodeNomKey bytes of vals to dst and returns
// the extended slice. Hot paths reuse one buffer across tuples (see
// Interner) instead of allocating a string per call.
func AppendNomKey(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeNomKey unpacks an EncodeNomKey key of the given dimensionality.
// ok is false when the key length does not match. The bits are read
// straight off the string — no per-word []byte conversion.
func DecodeNomKey(key string, dims int) ([]float64, bool) {
	if len(key) != 8*dims {
		return nil, false
	}
	vals := make([]float64, dims)
	for i := range vals {
		k := key[8*i : 8*i+8]
		u := uint64(k[0]) | uint64(k[1])<<8 | uint64(k[2])<<16 | uint64(k[3])<<24 |
			uint64(k[4])<<32 | uint64(k[5])<<40 | uint64(k[6])<<48 | uint64(k[7])<<56
		vals[i] = math.Float64frombits(u)
	}
	return vals, true
}

// Interner deduplicates nominal histogram keys so the steady-state insert
// path stops allocating: Key encodes into a reusable buffer and returns
// the one canonical string per distinct value vector, allocating only the
// first time a vector is seen. The map is only ever indexed, never
// ranged, so it cannot leak iteration order. An Interner is not safe for
// concurrent use; each ACF-tree owns one.
type Interner struct {
	buf  []byte
	keys map[string]string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{keys: make(map[string]string)}
}

// Key returns the canonical EncodeNomKey string for vals. The lookup is
// allocation-free for vectors seen before (the compiler elides the
// []byte→string conversion in map reads).
func (it *Interner) Key(vals []float64) string {
	it.buf = AppendNomKey(it.buf[:0], vals)
	if s, ok := it.keys[string(it.buf)]; ok {
		return s
	}
	s := string(it.buf)
	it.keys[s] = s
	return s
}

// Len returns the number of distinct keys interned.
func (it *Interner) Len() int { return len(it.keys) }

// Groups returns the number of attribute groups the ACF projects onto.
func (a *ACF) Groups() int { return len(a.LS) }

// AddTuple folds one tuple into the ACF. proj[g] must hold the tuple's
// projection onto group g for every group.
func (a *ACF) AddTuple(proj [][]float64) {
	if len(proj) != len(a.LS) {
		panic(fmt.Sprintf("cf: tuple has %d group projections, ACF has %d", len(proj), len(a.LS)))
	}
	a.N++
	for g, p := range proj {
		ls := a.LS[g]
		if len(p) != len(ls) {
			panic(fmt.Sprintf("cf: group %d projection dims %d != %d", g, len(p), len(ls)))
		}
		for i, v := range p {
			ls[i] += v
			a.SS[g] += v * v
		}
	}
	for g, hist := range a.NomCounts {
		if hist != nil {
			hist[EncodeNomKey(proj[g])]++
		}
	}
}

// addRowHists is the histogram half of AddRowOwn: tracked groups count
// the exact projected value of the tuple, interned when an Interner is
// supplied.
func (a *ACF) addRowHists(row []float64, it *Interner) {
	if a.NomCounts == nil {
		return
	}
	off := 0
	for g, ls := range a.LS {
		if hist := a.NomCounts[g]; hist != nil {
			seg := row[off : off+len(ls)]
			if it != nil {
				hist[it.Key(seg)]++
			} else {
				hist[EncodeNomKey(seg)]++
			}
		}
		off += len(ls)
	}
}

// mustFlat panics unless the ACF was built by NewACF, NewACFTracked or
// Clone. The kernels index the flat backing and the cached own-group
// offset directly; an ACF assembled field by field has neither, and
// folding into it would add into the wrong cells (or none) silently.
func (a *ACF) mustFlat() {
	if a.flat == nil {
		panic("cf: ACF not built by NewACF, NewACFTracked or Clone; re-flatten it with Clone")
	}
}

// AddRowOwn is the eager half of the row insert: it folds the owning
// group's segment of a flat projection row (the per-group projections
// concatenated in group order, exactly the LS layout) — plus N and the
// exact-value histograms, allocation-free for already-seen values with a
// non-nil interner — and nothing else. Everything the ACF-tree's descent,
// admission test and split logic reads (N, LS[Own], SS[Own], the centroid
// caches derived from them) is therefore up to date after this call,
// while the cross-group Eq. 7 sums are deferred until AddRows applies them
// batched. AddRowOwn(row) followed by AddRows over the same row is
// bit-identical to AddTuple on the row's projections: every float cell
// receives the same additions in the same tuple order — the split only
// reorders updates *across* cells, which IEEE addition per cell cannot
// observe, and the histogram counts are integers.
func (a *ACF) AddRowOwn(row []float64, it *Interner) {
	a.mustFlat()
	a.N++
	ls := a.LS[a.Own]
	seg := row[a.ownOff : a.ownOff+len(ls)]
	ss := a.SS
	for i, v := range seg {
		ls[i] += v
		ss[a.Own] += v * v
	}
	a.addRowHists(row, it)
}

// AddRows is the batched half of the row insert: it applies the deferred
// cross-group LS/SS updates of n consecutive flat rows (rows holds
// n×stride floats) in one contiguous pass per row, skipping the owning
// group that AddRowOwn already folded. The Phase I insert kernel uses it
// to fuse the inner row-update loop over a whole run of tuples admitted
// into the same cluster: one call, one walk of the ACF's flat backing per
// row, no per-tuple layout checks. Pairs with AddRowOwn — see there for
// the bit-identity argument.
func (a *ACF) AddRows(rows []float64, stride, n int) {
	a.mustFlat()
	o0 := a.ownOff
	o1 := o0 + len(a.LS[a.Own])
	ls, ss := a.flat, a.SS
	if a.uniform && stride == len(ss) {
		// Uniform shape: the row index is the group index, so the
		// own-group skip is a single hole in one fused LS/SS loop.
		for r := 0; r < n; r++ {
			row := rows[r*stride : (r+1)*stride]
			for i, v := range row[:o0] {
				ls[i] += v
				ss[i] += v * v
			}
			for i := o1; i < stride; i++ {
				v := row[i]
				ls[i] += v
				ss[i] += v * v
			}
		}
		return
	}
	for r := 0; r < n; r++ {
		row := rows[r*stride : (r+1)*stride]
		g, end := 0, len(a.LS[0])
		for i, v := range row {
			for i >= end {
				g++
				end += len(a.LS[g])
			}
			if i >= o0 && i < o1 {
				continue
			}
			ls[i] += v
			ss[g] += v * v
		}
	}
}

// Merge folds another ACF into this one (ACF additivity). Both must be
// over the same owning group and shape.
func (a *ACF) Merge(o *ACF) {
	if o.Own != a.Own {
		panic(fmt.Sprintf("cf: merging ACF over group %d into group %d", o.Own, a.Own))
	}
	if len(o.LS) != len(a.LS) {
		panic(fmt.Sprintf("cf: merging ACF with %d groups into %d", len(o.LS), len(a.LS)))
	}
	a.mustFlat()
	o.mustFlat()
	if len(o.flat) != len(a.flat) {
		panic(fmt.Sprintf("cf: merging ACF of %d sums into one of %d", len(o.flat), len(a.flat)))
	}
	a.N += o.N
	// LS and SS add in one contiguous pass over the backings.
	for i, v := range o.flat {
		a.flat[i] += v
	}
	for g, hist := range a.NomCounts {
		if hist == nil {
			continue
		}
		var ohist map[string]int64
		if g < len(o.NomCounts) {
			ohist = o.NomCounts[g]
		}
		if ohist == nil {
			// Silently dropping the other side's tuples would corrupt the
			// counts (Theorem 5.2 distances come straight out of them).
			panic(fmt.Sprintf("cf: merging untracked ACF into one tracking group %d", g))
		}
		for k, n := range ohist {
			hist[k] += n
		}
	}
}

// Clone returns an independent deep copy over a fresh flat backing,
// whatever the source's layout: this is how an ACF assembled field by
// field (a gob decode) becomes one the kernels accept.
func (a *ACF) Clone() *ACF {
	total := 0
	for _, ls := range a.LS {
		total += len(ls)
	}
	flat := make([]float64, total+len(a.LS))
	c := &ACF{
		N:       a.N,
		Own:     a.Own,
		LS:      make([][]float64, len(a.LS)),
		SS:      flat[total:],
		flat:    flat,
		uniform: true,
	}
	off := 0
	for g, ls := range a.LS {
		if g == a.Own {
			c.ownOff = off
		}
		c.uniform = c.uniform && len(ls) == 1
		c.LS[g] = flat[off : off+len(ls) : off+len(ls)]
		copy(c.LS[g], ls)
		off += len(ls)
	}
	copy(c.SS, a.SS)
	if a.NomCounts != nil {
		c.NomCounts = make([]map[string]int64, len(a.NomCounts))
		for g, hist := range a.NomCounts {
			if hist == nil {
				continue
			}
			m := make(map[string]int64, len(hist))
			for k, n := range hist {
				m[k] = n
			}
			c.NomCounts[g] = m
		}
	}
	return c
}

// NomCount returns the number of the cluster's tuples whose projection on
// group g equals the encoded key, or 0 when the group is untracked.
func (a *ACF) NomCount(g int, key string) int64 {
	if g >= len(a.NomCounts) || a.NomCounts[g] == nil {
		return 0
	}
	return a.NomCounts[g][key]
}

// Tracked reports whether exact-value tracking is enabled for group g.
func (a *ACF) Tracked(g int) bool {
	return g < len(a.NomCounts) && a.NomCounts[g] != nil
}

// OwnNomKey returns the encoded exact value of a single-valued cluster on
// its own group. When the own group is tracked and the histogram holds
// exactly one key — the Theorem 5.1 regime, where threshold-0 clustering
// makes clusters coincide with exact values — that key is returned.
// Otherwise the centroid is encoded as a best-effort fallback.
func (a *ACF) OwnNomKey() string {
	if a.Tracked(a.Own) && len(a.NomCounts[a.Own]) == 1 {
		for k := range a.NomCounts[a.Own] {
			return k
		}
	}
	return EncodeNomKey(a.Centroid())
}

// Image returns the summary of the cluster's image on group g — C[Y] in
// the paper's notation, where Y is group g. The LS slice is shared, not
// copied; callers must treat the view as read-only.
func (a *ACF) Image(g int) distance.Summary {
	return distance.Summary{N: a.N, LS: a.LS[g], SS: a.SS[g]}
}

// OwnSummary returns the summary over the owning group — the C[X] the
// cluster was formed on.
func (a *ACF) OwnSummary() distance.Summary { return a.Image(a.Own) }

// OwnCF extracts the plain CF over the owning group (used when promoting
// leaf summaries into internal CF nodes of the tree).
func (a *ACF) OwnCF() *CF {
	return &CF{N: a.N, LS: append([]float64(nil), a.LS[a.Own]...), SS: a.SS[a.Own]}
}

// Centroid returns the centroid on the owning group.
func (a *ACF) Centroid() []float64 { return a.OwnSummary().Centroid() }

// Diameter returns the diameter on the owning group.
func (a *ACF) Diameter() float64 { return a.OwnSummary().Diameter() }

// Bytes estimates the heap footprint for memory accounting: headers plus
// every projection's backing array, plus the exact-value histograms when
// tracking is enabled. The formula is a function of the shape alone (it
// predates the flat backing and is kept so the rebuild schedules and the
// .acfsum goldens stay put). Note cftree.Tree sizes
// its per-entry budget from an untracked NewACF, so histogram growth
// never changes the tree's rebuild schedule — tracked and untracked
// ingests cluster identically.
func (a *ACF) Bytes() int {
	b := 8 /* N */ + 8 /* Own */ + 24 + 24 + 24 /* slice headers */
	for _, ls := range a.LS {
		b += 24 + 8*len(ls)
	}
	b += 8 * len(a.SS)
	for _, hist := range a.NomCounts {
		if hist == nil {
			continue
		}
		b += 48 // map header
		for k := range hist {
			b += 16 + len(k)
		}
	}
	return b
}
