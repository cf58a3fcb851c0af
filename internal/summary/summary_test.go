package summary

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cf"
	"repro/internal/relation"
)

// testingT is the slice of *testing.T/*testing.F that testSummary needs,
// so the fuzz target can reuse it.
type testingT interface {
	Helper()
	Fatalf(format string, args ...interface{})
}

// testSummary builds a small but fully featured summary: one interval
// group, one nominal group with the given dictionary order, clusters
// fed through AddTuple so sums and histograms are mutually consistent.
// tuples[i] = (x, nominal value); values must appear in dict.
func testSummary(t testingT, dict []string, tuples []struct {
	X float64
	C string
}, xClusterOf func(i int) int, numXClusters int) *Summary {
	t.Helper()
	code := make(map[string]float64, len(dict))
	for i, v := range dict {
		code[v] = float64(i)
	}
	shape := cf.Shape{1, 1}
	track := []bool{false, true}

	xcl := make([]*cf.ACF, numXClusters)
	for i := range xcl {
		xcl[i] = cf.NewACFTracked(shape, 0, track)
	}
	ccl := make(map[string]*cf.ACF)
	corder := []string{}
	for i, tp := range tuples {
		c, ok := code[tp.C]
		if !ok {
			t.Fatalf("value %q not in dict", tp.C)
		}
		proj := [][]float64{{tp.X}, {c}}
		xcl[xClusterOf(i)].AddTuple(proj)
		if ccl[tp.C] == nil {
			ccl[tp.C] = cf.NewACFTracked(shape, 1, track)
			corder = append(corder, tp.C)
		}
		ccl[tp.C].AddTuple(proj)
	}
	nomClusters := make([]*cf.ACF, len(corder))
	for i, v := range corder {
		nomClusters[i] = ccl[v]
	}
	return &Summary{
		Attrs: []Attr{
			{Name: "X", Kind: relation.Interval},
			{Name: "C", Kind: relation.Nominal, Values: append([]string(nil), dict...)},
		},
		Groups: []Group{
			{Name: "X", Attrs: []int{0}, D0: 2, Threshold: 2, Clusters: xcl},
			{Name: "C", Attrs: []int{1}, Nominal: true, Clusters: nomClusters},
		},
		Tuples: int64(len(tuples)),
		Shards: 1,
	}
}

func shardA(t *testing.T) *Summary {
	return testSummary(t, []string{"red", "blue"}, []struct {
		X float64
		C string
	}{{1, "red"}, {2, "red"}, {30, "blue"}},
		func(i int) int {
			if i < 2 {
				return 0
			}
			return 1
		}, 2)
}

func shardB(t *testing.T) *Summary {
	// Note the dictionary order: "blue" has code 0 here but code 1 in
	// shard A, so Merge must remap.
	return testSummary(t, []string{"blue", "green"}, []struct {
		X float64
		C string
	}{{31, "blue"}, {100, "green"}},
		func(i int) int { return i }, 2)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := shardA(t)
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	s := shardA(t)
	d1, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := Encode(s)
	if !bytes.Equal(d1, d2) {
		t.Error("two encodings of the same summary differ")
	}
	decoded, err := Decode(d1)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := Encode(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d3) {
		t.Error("encode(decode(x)) != x")
	}
}

// TestRoundTripProperty round-trips randomized summaries: arbitrary
// float payloads (including negatives and fractions), several groups,
// varying cluster counts. Encode must size its buffer exactly for each.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		dict := []string{"a", "b", "c", "d"}[:2+rng.Intn(3)]
		var tuples []struct {
			X float64
			C string
		}
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			tuples = append(tuples, struct {
				X float64
				C string
			}{rng.NormFloat64() * 100, dict[rng.Intn(len(dict))]})
		}
		k := 1 + rng.Intn(3)
		s := testSummary(t, dict, tuples, func(i int) int { return i % k }, k)
		s.Groups[0].Rebuilds = rng.Intn(5)
		s.Groups[0].OutliersPaged = rng.Intn(5)
		s.Groups[0].Bytes = rng.Intn(1 << 20)
		data, err := Encode(s)
		if err != nil {
			t.Fatalf("trial %d: Encode: %v", trial, err)
		}
		if cap(data) != len(data) {
			t.Fatalf("trial %d: Encode's buffer has capacity %d for %d bytes", trial, cap(data), len(data))
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("trial %d: Decode: %v", trial, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

func TestDecodeVersionMismatch(t *testing.T) {
	data, err := Encode(shardA(t))
	if err != nil {
		t.Fatal(err)
	}
	data[4] = codecVersion + 1
	// Re-seal the checksum so the version check is what fires.
	payload := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(payload))
	_, err = Decode(data)
	if !errors.Is(err, ErrVersion) {
		t.Errorf("Decode of future version = %v, want ErrVersion", err)
	}
}

func TestDecodeTruncatedAndCorrupt(t *testing.T) {
	data, err := Encode(shardA(t))
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly, never panic.
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("Decode of %d-byte prefix succeeded", n)
		}
	}
	// Any single flipped byte must be caught (by the checksum at least).
	for i := 0; i < len(data); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x41
		if _, err := Decode(bad); err == nil {
			t.Fatalf("Decode with byte %d flipped succeeded", i)
		}
	}
	if _, err := Decode([]byte("NOTASUMMARY-----------------")); err == nil {
		t.Error("Decode of garbage succeeded")
	}
}

func TestMergeRemapsDictionaries(t *testing.T) {
	a, b := shardA(t), shardB(t)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if m.Tuples != 5 || m.Shards != 2 {
		t.Errorf("Tuples, Shards = %d, %d; want 5, 2", m.Tuples, m.Shards)
	}
	wantDict := []string{"red", "blue", "green"}
	if !reflect.DeepEqual(m.Attrs[1].Values, wantDict) {
		t.Fatalf("merged dictionary = %v, want %v", m.Attrs[1].Values, wantDict)
	}

	// Nominal group: the two "blue" clusters (one per shard) must fold
	// into one, and every cluster's code must follow the merged dict.
	nom := m.Groups[1].Clusters
	if len(nom) != 3 {
		t.Fatalf("merged nominal clusters = %d, want 3 (red, blue, green)", len(nom))
	}
	byValue := map[string]*cf.ACF{}
	for _, c := range nom {
		code := c.LS[1][0] / float64(c.N)
		byValue[wantDict[int(code)]] = c
	}
	if c := byValue["blue"]; c == nil || c.N != 2 {
		t.Errorf("blue cluster = %+v, want N=2", byValue["blue"])
	}
	if c := byValue["green"]; c == nil || c.N != 1 || c.LS[1][0] != 2 {
		t.Errorf("green cluster = %+v, want N=1 code 2", byValue["green"])
	}

	// Interval-group clusters from shard B must have their nominal
	// projections remapped: the (X=31, blue) cluster carried code 0 in
	// shard B, and must now carry code 1.
	var x31 *cf.ACF
	for _, c := range m.Groups[0].Clusters {
		if c.N == 1 && c.LS[0][0] == 31 {
			x31 = c
		}
	}
	if x31 == nil {
		t.Fatal("shard B's X=31 cluster missing after merge")
	}
	if x31.LS[1][0] != 1 || x31.SS[1] != 1 {
		t.Errorf("X=31 cluster nominal sums = LS %v SS %v, want code 1", x31.LS[1][0], x31.SS[1])
	}
	if n := x31.NomCount(1, cf.EncodeNomKey([]float64{1})); n != 1 {
		t.Errorf("X=31 cluster histogram count for merged blue code = %d, want 1", n)
	}

	// Inputs must be untouched.
	if a.Tuples != 3 || len(a.Groups[1].Clusters) != 2 || b.Attrs[1].Values[0] != "blue" {
		t.Error("Merge mutated an input summary")
	}
}

func TestMergeCommutesOnCounts(t *testing.T) {
	ab, err := Merge(shardA(t), shardB(t))
	if err != nil {
		t.Fatal(err)
	}
	ba, err := Merge(shardB(t), shardA(t))
	if err != nil {
		t.Fatal(err)
	}
	if ab.Tuples != ba.Tuples || len(ab.Groups[1].Clusters) != len(ba.Groups[1].Clusters) {
		t.Errorf("merge order changes counts: %d/%d clusters, %d/%d tuples",
			len(ab.Groups[1].Clusters), len(ba.Groups[1].Clusters), ab.Tuples, ba.Tuples)
	}
}

func TestMergeRejectsMismatchedShapes(t *testing.T) {
	a := shardA(t)
	other := shardA(t)
	other.Attrs[0].Name = "Y"
	other.Groups[0].Name = "Y"
	if _, err := Merge(a, other); err == nil {
		t.Error("Merge across different schemas succeeded")
	}
	d0 := shardA(t)
	d0.Groups[0].D0 = 99
	if _, err := Merge(a, d0); err == nil {
		t.Error("Merge across different d0 succeeded")
	}
}

func TestSchemaPartitioningRoundTrip(t *testing.T) {
	s := shardA(t)
	schema, err := s.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if schema.Width() != 2 || schema.Attr(1).Dict == nil {
		t.Fatalf("reconstructed schema %+v", schema)
	}
	if got := schema.Attr(1).Dict.Value(1); got != "blue" {
		t.Errorf("code 1 = %q, want blue (code order must survive)", got)
	}
	part, err := s.Partitioning(schema)
	if err != nil {
		t.Fatal(err)
	}
	if part.NumGroups() != 2 || part.Group(1).Name != "C" {
		t.Errorf("reconstructed partitioning %+v", part)
	}
}
