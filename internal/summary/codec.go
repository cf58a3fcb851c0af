package summary

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sort"

	"repro/internal/cf"
	"repro/internal/relation"
)

// The .acfsum wire format, version 1:
//
//	magic       "ACFS" (4 bytes)
//	version     1 byte
//	reserved    3 zero bytes
//	fingerprint uint64 LE (Summary.Fingerprint of the payload)
//	body        see below
//	crc32       uint32 LE, IEEE, over everything before it
//
// The body is a flat uvarint/float64 stream: strings are uvarint length
// + raw bytes, floats are 8 little-endian bytes of their IEEE-754 bits
// (bit-exact round trip, NaN and -0 included). Layout:
//
//	tuples shards
//	nattrs  { name kind nvalues { value } }
//	ngroups { name nattrs { attr } nominal d0 threshold
//	          rebuilds outliersPaged bytes nclusters }
//	{ per group, its nclusters clusters:
//	  n { ls... per group } { ss per group }
//	  ntracked { g nkeys { key count } } }
//
// Group headers all precede the cluster blocks because a cluster's
// projection layout depends on every group's width. Cluster owners are
// implied by the enclosing block. Histogram keys are emitted in
// bytewise-sorted order so encoding is a pure function of the summary
// value: equal summaries encode to byte-identical files, which the
// golden tests rely on.
const (
	codecMagic   = "ACFS"
	codecVersion = 1
)

// ErrVersion is returned (wrapped) by Decode when the file's version
// byte is not one this build understands.
var ErrVersion = errors.New("summary: unsupported format version")

// ErrCorrupt is returned (wrapped) by Decode for any structural damage:
// bad magic, truncation, checksum mismatch, or out-of-range values.
var ErrCorrupt = errors.New("summary: corrupt data")

// Encode serializes the summary. The output is deterministic: equal
// summaries yield equal bytes.
func Encode(s *Summary) ([]byte, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	shape := s.Shape()
	b := make([]byte, 0, encodedLen(s, shape))
	b = append(b, codecMagic...)
	b = append(b, codecVersion, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, s.Fingerprint())

	b = appendUvarint(b, uint64(s.Tuples))
	b = appendUvarint(b, uint64(s.Shards))

	b = appendUvarint(b, uint64(len(s.Attrs)))
	for _, a := range s.Attrs {
		b = appendString(b, a.Name)
		b = appendUvarint(b, uint64(a.Kind))
		b = appendUvarint(b, uint64(len(a.Values)))
		for _, v := range a.Values {
			b = appendString(b, v)
		}
	}

	b = appendUvarint(b, uint64(len(s.Groups)))
	for _, g := range s.Groups {
		b = appendString(b, g.Name)
		b = appendUvarint(b, uint64(len(g.Attrs)))
		for _, a := range g.Attrs {
			b = appendUvarint(b, uint64(a))
		}
		if g.Nominal {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendFloat(b, g.D0)
		b = appendFloat(b, g.Threshold)
		b = appendUvarint(b, uint64(g.Rebuilds))
		b = appendUvarint(b, uint64(g.OutliersPaged))
		b = appendUvarint(b, uint64(g.Bytes))
		b = appendUvarint(b, uint64(len(g.Clusters)))
	}

	var keys []string // histogram keys, reused across clusters
	for _, g := range s.Groups {
		for _, a := range g.Clusters {
			b = appendUvarint(b, uint64(a.N))
			for g2 := range shape {
				for _, v := range a.LS[g2] {
					b = appendFloat(b, v)
				}
			}
			for g2 := range shape {
				b = appendFloat(b, a.SS[g2])
			}
			tracked := 0
			for g2 := range shape {
				if a.Tracked(g2) {
					tracked++
				}
			}
			b = appendUvarint(b, uint64(tracked))
			for g2 := range shape {
				if !a.Tracked(g2) {
					continue
				}
				hist := a.NomCounts[g2]
				b = appendUvarint(b, uint64(g2))
				b = appendUvarint(b, uint64(len(hist)))
				keys = keys[:0]
				for k := range hist {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					b = appendString(b, k)
					b = appendUvarint(b, uint64(hist[k]))
				}
			}
		}
	}

	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return b, nil
}

// encodedLen is the exact length of Encode's output for s, computed from
// the summary's shape so that Encode writes into one allocation. It
// walks the layout Encode writes; the codec tests check that Encode's
// buffer comes back exactly full.
func encodedLen(s *Summary, shape cf.Shape) int {
	n := len(codecMagic) + 4 + 8 // magic, version and reserved, fingerprint
	n += uvarintLen(uint64(s.Tuples)) + uvarintLen(uint64(s.Shards))
	n += uvarintLen(uint64(len(s.Attrs)))
	for _, a := range s.Attrs {
		n += stringLen(a.Name) + uvarintLen(uint64(a.Kind)) + uvarintLen(uint64(len(a.Values)))
		for _, v := range a.Values {
			n += stringLen(v)
		}
	}
	n += uvarintLen(uint64(len(s.Groups)))
	for _, g := range s.Groups {
		n += stringLen(g.Name) + uvarintLen(uint64(len(g.Attrs)))
		for _, a := range g.Attrs {
			n += uvarintLen(uint64(a))
		}
		n += 1 + 8 + 8 // nominal flag, d0, threshold
		n += uvarintLen(uint64(g.Rebuilds)) + uvarintLen(uint64(g.OutliersPaged)) + uvarintLen(uint64(g.Bytes))
		n += uvarintLen(uint64(len(g.Clusters)))
	}
	floats := 0 // per cluster: every group's LS plus one SS per group
	for _, d := range shape {
		floats += d + 1
	}
	for _, g := range s.Groups {
		for _, a := range g.Clusters {
			n += uvarintLen(uint64(a.N)) + 8*floats
			tracked := 0
			for g2 := range shape {
				if !a.Tracked(g2) {
					continue
				}
				tracked++
				hist := a.NomCounts[g2]
				n += uvarintLen(uint64(g2)) + uvarintLen(uint64(len(hist)))
				for k, c := range hist {
					n += stringLen(k) + uvarintLen(uint64(c))
				}
			}
			n += uvarintLen(uint64(tracked))
		}
	}
	return n + 4 // crc32
}

// Decode parses an .acfsum payload. It never panics on malformed input:
// truncation, bad magic, checksum mismatch, or inconsistent structure
// yield an error wrapping ErrCorrupt (or ErrVersion for a version
// mismatch).
func Decode(data []byte) (*Summary, error) {
	if len(data) < len(codecMagic)+4+8+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed header", ErrCorrupt, len(data))
	}
	if string(data[:4]) != codecMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	if v := data[4]; v != codecVersion {
		return nil, fmt.Errorf("%w: got version %d, this build reads version %d", ErrVersion, v, codecVersion)
	}
	if data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return nil, fmt.Errorf("%w: non-zero reserved bytes", ErrCorrupt)
	}
	payload, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x, stored %08x)", ErrCorrupt, got, want)
	}
	storedFP := binary.LittleEndian.Uint64(data[8:16])

	r := &reader{data: payload, off: 16}
	s := &Summary{}
	s.Tuples = r.i64("tuples")
	s.Shards = r.count("shards")

	nattrs := r.count("attribute count")
	s.Attrs = make([]Attr, 0, min(nattrs, r.remaining()))
	for i := 0; i < nattrs && r.err == nil; i++ {
		a := Attr{Name: r.str("attribute name")}
		a.Kind = relation.Kind(r.count("attribute kind"))
		if r.err == nil && (a.Kind < relation.Interval || a.Kind > relation.Nominal) {
			r.fail(fmt.Errorf("unknown attribute kind %d", a.Kind))
		}
		nvals := r.count("dictionary size")
		if nvals > 0 {
			a.Values = make([]string, 0, min(nvals, r.remaining()))
		}
		for j := 0; j < nvals && r.err == nil; j++ {
			a.Values = append(a.Values, r.str("dictionary value"))
		}
		s.Attrs = append(s.Attrs, a)
	}

	ngroups := r.count("group count")
	s.Groups = make([]Group, 0, min(ngroups, r.remaining()))
	nclusters := make([]int, 0, min(ngroups, r.remaining()))
	for gi := 0; gi < ngroups && r.err == nil; gi++ {
		g := Group{Name: r.str("group name")}
		na := r.count("group attribute count")
		g.Attrs = make([]int, 0, min(na, r.remaining()))
		for j := 0; j < na && r.err == nil; j++ {
			g.Attrs = append(g.Attrs, r.count("group attribute"))
		}
		g.Nominal = r.byte("nominal flag") != 0
		g.D0 = r.float("d0")
		g.Threshold = r.float("threshold")
		g.Rebuilds = r.count("rebuilds")
		g.OutliersPaged = r.count("outliers paged")
		g.Bytes = r.count("tree bytes")
		nclusters = append(nclusters, r.count("cluster count"))
		s.Groups = append(s.Groups, g)
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, r.err)
	}

	shape := s.Shape()
	for gi := range s.Groups {
		n := nclusters[gi]
		s.Groups[gi].Clusters = make([]*cf.ACF, 0, min(n, r.remaining()))
		for ci := 0; ci < n && r.err == nil; ci++ {
			a := cf.NewACF(shape, gi)
			a.N = r.i64("cluster N")
			for g2 := range shape {
				for d := range a.LS[g2] {
					a.LS[g2][d] = r.float("cluster LS")
				}
			}
			for g2 := range shape {
				a.SS[g2] = r.float("cluster SS")
			}
			ntracked := r.count("tracked group count")
			if ntracked > len(shape) {
				r.fail(fmt.Errorf("cluster tracks %d groups, partitioning has %d", ntracked, len(shape)))
			}
			prevG := -1
			for t := 0; t < ntracked && r.err == nil; t++ {
				g2 := r.count("tracked group index")
				if r.err == nil && (g2 <= prevG || g2 >= len(shape)) {
					r.fail(fmt.Errorf("tracked group %d out of order or outside partitioning of %d groups", g2, len(shape)))
					break
				}
				prevG = g2
				nkeys := r.count("histogram size")
				hist := make(map[string]int64, min(nkeys, r.remaining()))
				prevKey := ""
				for k := 0; k < nkeys && r.err == nil; k++ {
					key := r.str("histogram key")
					// Keys must arrive in the encoder's strict bytewise
					// order — keeps the codec canonical.
					if r.err == nil && k > 0 && key <= prevKey {
						r.fail(fmt.Errorf("histogram keys out of order"))
						break
					}
					prevKey = key
					hist[key] = r.i64("histogram count")
				}
				if r.err == nil {
					if a.NomCounts == nil {
						a.NomCounts = make([]map[string]int64, len(shape))
					}
					a.NomCounts[g2] = hist
				}
			}
			s.Groups[gi].Clusters = append(s.Groups[gi].Clusters, a)
		}
	}
	if r.err == nil && r.remaining() != 0 {
		r.fail(fmt.Errorf("%d trailing bytes after the last cluster", r.remaining()))
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, r.err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if fp := s.Fingerprint(); fp != storedFP {
		return nil, fmt.Errorf("%w: fingerprint mismatch (computed %016x, stored %016x)", ErrCorrupt, fp, storedFP)
	}
	return s, nil
}

// reader is a bounds-checked cursor over the payload. The first failure
// sticks; all subsequent reads return zero values, so decode loops can
// check r.err once per iteration.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) remaining() int { return len(r.data) - r.off }

func (r *reader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail(fmt.Errorf("truncated reading %s", what))
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

func (r *reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("truncated or overlong varint reading %s", what))
		return 0
	}
	// Reject non-minimal encodings (e.g. 0x80 0x00 for zero) so every
	// value has exactly one wire form — the fuzz target checks that
	// whatever Decode accepts re-encodes byte-identically.
	if n > 1 && v>>(7*(n-1)) == 0 {
		r.fail(fmt.Errorf("non-minimal varint reading %s", what))
		return 0
	}
	r.off += n
	return v
}

// i64 reads a uvarint that must fit a non-negative int64.
func (r *reader) i64(what string) int64 {
	v := r.uvarint(what)
	if r.err == nil && v > math.MaxInt64 {
		r.fail(fmt.Errorf("%s %d overflows int64", what, v))
		return 0
	}
	return int64(v)
}

// count reads a uvarint that must fit comfortably in an int.
func (r *reader) count(what string) int {
	v := r.uvarint(what)
	if r.err == nil && v > uint64(math.MaxInt32) {
		r.fail(fmt.Errorf("%s %d is implausibly large", what, v))
		return 0
	}
	return int(v)
}

func (r *reader) float(what string) float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail(fmt.Errorf("truncated reading %s", what))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

func (r *reader) str(what string) string {
	n := r.count(what + " length")
	if r.err != nil {
		return ""
	}
	if n > r.remaining() {
		r.fail(fmt.Errorf("truncated reading %s (%d bytes claimed, %d left)", what, n, r.remaining()))
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// uvarintLen is the number of bytes appendUvarint writes for v.
func uvarintLen(v uint64) int {
	return max(1, (bits.Len64(v)+6)/7)
}

// stringLen is the number of bytes appendString writes for s.
func stringLen(s string) int {
	return uvarintLen(uint64(len(s))) + len(s)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
