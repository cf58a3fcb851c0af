package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cf"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/summary"
)

func TestExportAndWriteJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	rel := plantedXY(rng, 100, 5)
	part := relation.SingletonPartitioning(rel.Schema())
	m, err := NewMiner(rel, part, plantedOptions())
	if err != nil {
		t.Fatalf("NewMiner: %v", err)
	}
	res, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}

	exp := exportReference(res, rel, part)
	if exp.Tuples != rel.Len() {
		t.Errorf("Tuples = %d", exp.Tuples)
	}
	if len(exp.Clusters) != len(res.Clusters) || len(exp.Rules) != len(res.Rules) {
		t.Errorf("export sizes: %d/%d clusters, %d/%d rules",
			len(exp.Clusters), len(res.Clusters), len(exp.Rules), len(res.Rules))
	}
	for i, c := range exp.Clusters {
		if c.ID != i {
			t.Errorf("cluster %d has ID %d", i, c.ID)
		}
		if c.Group != "x" && c.Group != "y" {
			t.Errorf("cluster group = %q", c.Group)
		}
		if c.Description == "" || len(c.Centroid) != 1 {
			t.Errorf("cluster export incomplete: %+v", c)
		}
	}
	for _, r := range exp.Rules {
		if !strings.Contains(r.Description, "⇒") {
			t.Errorf("rule description = %q", r.Description)
		}
		if r.Support < 0 {
			t.Errorf("post-scan run should carry supports, got %d", r.Support)
		}
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, res, rel, part); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back ExportedResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Tuples != exp.Tuples || len(back.Rules) != len(exp.Rules) {
		t.Errorf("round trip mismatch: %+v", back)
	}
	if back.PhaseI.Frequent != res.PhaseI.FrequentClusters {
		t.Errorf("PhaseI export = %+v", back.PhaseI)
	}
}

// checkWriteJSON asserts WriteJSON ≡ writeJSONReference on one result:
// the same bytes, or the same error with nothing written; and every
// cluster and rule description equal to the fmt reference's.
func checkWriteJSON(t *testing.T, res *Result, rel relation.Source, part *relation.Partitioning) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := WriteJSON(&got, res, rel, part)
	wantErr := writeJSONReference(&want, res, rel, part)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("WriteJSON error %v, reference error %v", gotErr, wantErr)
	case gotErr != nil:
		var unsupported *json.UnsupportedValueError
		if gotErr.Error() != wantErr.Error() || !errors.As(gotErr, &unsupported) {
			t.Fatalf("WriteJSON error %q, reference error %q", gotErr, wantErr)
		}
		if got.Len() != 0 {
			t.Fatalf("WriteJSON failed but wrote %d bytes", got.Len())
		}
	case !bytes.Equal(got.Bytes(), want.Bytes()):
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("WriteJSON differs from the reference at line %d:\n got %q\nwant %q", i+1, g[i], w[i])
			}
		}
		t.Fatalf("WriteJSON has %d lines, the reference %d", len(g), len(w))
	}
	for _, c := range res.Clusters {
		if got, want := c.Describe(rel, part), describeReference(c, rel, part); got != want {
			t.Fatalf("Describe = %q, reference %q", got, want)
		}
	}
	for _, r := range res.Rules {
		if got, want := res.DescribeRule(r, rel, part), describeRuleReference(res, r, rel, part); got != want {
			t.Fatalf("DescribeRule = %q, reference %q", got, want)
		}
		if got, want := RuleSignature(res, r, rel, part), ruleSignatureReference(res, r, rel, part); got != want {
			t.Fatalf("RuleSignature = %q, reference %q", got, want)
		}
	}
}

// checkFrame asserts that frame's result's Frame around res's Body is
// WriteJSON's document of res: head, body and tail concatenate to its
// bytes, or the frame or the body fails with its error and nothing is
// rendered. frame is res itself or the base res was derived from.
func checkFrame(t *testing.T, frame, res *Result, rel relation.Source, part *relation.Partitioning) {
	t.Helper()
	var want bytes.Buffer
	wantErr := WriteJSON(&want, res, rel, part)
	f, err := NewFrame(frame, rel, part)
	var body []byte
	switch {
	case err == nil:
		body, err = f.Body(res)
	case f != nil:
		t.Fatalf("a failed frame returned %d bytes", f.Size())
	}
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("frame and body error %v, WriteJSON error %v", err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("frame and body error %q, WriteJSON error %q", err, wantErr)
		}
		if body != nil {
			t.Fatalf("a failed body returned %d bytes", len(body))
		}
	default:
		got := slices.Concat(f.Head(), body, f.Tail())
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("head + body + tail differs from WriteJSON:\n got %q\nwant %q", got, want.Bytes())
		}
	}
}

// writeJSONDataset is a relation the WriteJSON differential ingests,
// with thresholds derived as dard derives them.
type writeJSONDataset struct {
	name string
	rel  *relation.Relation
	part *relation.Partitioning
}

func writeJSONDatasets(t testing.TB) []writeJSONDataset {
	salary, err := os.ReadFile(filepath.Join("..", "..", "cmd", "darminer", "testdata", "golden_input.csv"))
	if err != nil {
		t.Fatal(err)
	}
	salaryRel, err := relation.ReadCSV(bytes.NewReader(salary))
	if err != nil {
		t.Fatal(err)
	}
	// The kitchen sink: a nominal segment, a two-attribute Lat+Lon
	// group and an interval spend.
	kitchen := relation.NewRelation(relation.MustSchema(
		relation.Attribute{Name: "Segment", Kind: relation.Nominal},
		relation.Attribute{Name: "Lat", Kind: relation.Interval},
		relation.Attribute{Name: "Lon", Kind: relation.Interval},
		relation.Attribute{Name: "Spend", Kind: relation.Interval},
	))
	dict := kitchen.Schema().Attr(0).Dict
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 800; i++ {
		if i%2 == 0 {
			kitchen.MustAppend([]float64{dict.Code("Premium"), 40 + rng.NormFloat64()*0.01, -83 + rng.NormFloat64()*0.01, 900 + rng.NormFloat64()*40})
		} else {
			kitchen.MustAppend([]float64{dict.Code("Basic"), 41.5 + rng.NormFloat64()*0.01, -81.5 + rng.NormFloat64()*0.01, 120 + rng.NormFloat64()*20})
		}
	}
	cfg := datagen.DefaultWBCDConfig()
	cfg.Tuples = 20000
	wbcd, err := datagen.WBCDLike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []writeJSONDataset
	for _, ds := range []struct {
		name   string
		rel    *relation.Relation
		groups string
	}{{"salary", salaryRel, ""}, {"kitchen", kitchen, "Lat+Lon"}, {"wbcd20k", wbcd, ""}} {
		part, err := relation.ParseGroupsSpec(ds.rel.Schema(), ds.groups)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, writeJSONDataset{ds.name, ds.rel, part})
	}
	return out
}

// ingestDerived ingests rel with thresholds from SuggestThresholds.
func ingestDerived(t testing.TB, rel *relation.Relation, part *relation.Partitioning, workers int) (*summary.Summary, Options) {
	d0s, err := SuggestThresholds(rel, part, AdvisorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.DiameterThresholds = d0s
	opt.Workers = workers
	sum, err := Ingest(rel, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sum, opt
}

// TestWriteJSONMatchesReference pins WriteJSON and the description
// formatters to their references over mined results: the salary golden
// input, the kitchen sink and a 20K-tuple WBCD summary, under the
// default query and each query mode, at 1 and 4 workers. Each answer
// is also rendered as its base's Frame around the answer's Body, as
// dard serves it, and its own frame must be its base's. Each answer is
// rendered again with a NaN degree, which every path must reject
// alike. One post-scan Mine result adds exact boxes and counted
// supports.
func TestWriteJSONMatchesReference(t *testing.T) {
	for _, ds := range writeJSONDatasets(t) {
		first, last := ds.part.Group(0).Name, ds.part.Group(ds.part.NumGroups()-1).Name
		for _, workers := range []int{1, 4} {
			sum, opt := ingestDerived(t, ds.rel, ds.part, workers)
			for _, qc := range []struct {
				name string
				set  func(*QueryOptions)
			}{
				{"default", func(*QueryOptions) {}},
				{"topK=10", func(q *QueryOptions) { q.TopK = 10 }},
				{"topK=50", func(q *QueryOptions) { q.TopK = 50 }},
				{"measures", func(q *QueryOptions) { q.Measures = true }},
				{"sweep", func(q *QueryOptions) {
					q.SweepFactors = []float64{q.DegreeFactor / 4, q.DegreeFactor / 2, q.DegreeFactor}
				}},
				{"antecedent", func(q *QueryOptions) { q.AntecedentGroups = []string{first} }},
				{"consequent", func(q *QueryOptions) { q.ConsequentGroups = []string{last} }},
				{"norefine", func(q *QueryOptions) { q.GlobalRefine = false }},
			} {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", ds.name, workers, qc.name), func(t *testing.T) {
					q := opt.Query()
					qc.set(&q)
					base, err := QueryBase(sum, q)
					if err != nil {
						t.Fatal(err)
					}
					res, err := base.WithQueryModes(q, sum.GroupIndex)
					if err != nil {
						t.Fatal(err)
					}
					checkWriteJSON(t, res, ds.rel, ds.part)
					checkFrame(t, base, res, ds.rel, ds.part)
					checkSameFrame(t, base, res, ds.rel, ds.part)
					checkNaNDegree(t, base, res, ds.rel, ds.part)
				})
			}
		}
	}
	t.Run("salary/postscan", func(t *testing.T) {
		ds := writeJSONDatasets(t)[0]
		_, opt := ingestDerived(t, ds.rel, ds.part, 1)
		opt.PostScan = true
		m, err := NewMiner(ds.rel, ds.part, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Mine()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rules) == 0 || res.Rules[0].Support < 0 || !res.Clusters[0].BoxExact {
			t.Fatalf("want counted supports and exact boxes, got %d rules", len(res.Rules))
		}
		checkWriteJSON(t, res, ds.rel, ds.part)
		checkFrame(t, res, res, ds.rel, ds.part)
	})
}

// checkSameFrame asserts that an answer's frame is its base's, byte
// for byte.
func checkSameFrame(t *testing.T, base, res *Result, rel relation.Source, part *relation.Partitioning) {
	t.Helper()
	fb, err := NewFrame(base, rel, part)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewFrame(res, rel, part)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb.Head(), fr.Head()) || !bytes.Equal(fb.Tail(), fr.Tail()) {
		t.Fatal("the answer's frame differs from its base's")
	}
}

// checkNaNDegree renders res with one rule's degree NaN: both sides
// must fail with the same text and write nothing, and so must base's
// frame around the answer's body.
func checkNaNDegree(t *testing.T, base, res *Result, rel relation.Source, part *relation.Partitioning) {
	t.Helper()
	if len(res.Rules) == 0 {
		t.Fatal("the case mines no rules")
	}
	bad := *res
	bad.Rules = append([]Rule(nil), res.Rules...)
	bad.Rules[len(bad.Rules)/2].Degree = math.NaN()
	var got bytes.Buffer
	err := WriteJSON(&got, &bad, rel, part)
	const want = "core: encoding result: json: unsupported value: NaN"
	if err == nil || err.Error() != want || got.Len() != 0 {
		t.Fatalf("NaN degree: error %v with %d bytes written, want %q and none", err, got.Len(), want)
	}
	checkWriteJSON(t, &bad, rel, part)
	checkFrame(t, base, &bad, rel, part)
}

// TestJSONScalarsMatchEncodingJSON pins the writer's scalar forms to
// json.Marshal on each escaping and float-format rule.
func TestJSONScalarsMatchEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain", `q"uote`, `back\slash`, "\b\f\n\r\t", "\x00\x01\x1f\x7f",
		"<a href=x>&amp;", "line\u2028para\u2029", "bad\xffutf8", "cut\xe2\x80", "\x80lead",
		"é ∧ ⇒ \ufffd", "Salary ∈ [8.1e+05, 1e-07]",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
		if got := appendJSONString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString([]byte(%q)) = %s, want %s", s, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100,
		5e-324, 9.99e20, 1e21, -1e21, 1.7e308, math.MaxFloat64, -math.MaxFloat64, 123456.789,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// fuzzInput draws a WriteJSON input from fuzz bytes; an exhausted input
// reads as zeros.
type fuzzInput struct{ data []byte }

func (f *fuzzInput) byte() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *fuzzInput) intn(n int) int { return int(f.byte()) % n }

// fuzzFloats are the float forms the writer special-cases, or borders.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99e20, 1e21, -1e21, 5e-324,
	math.MaxFloat64, -math.MaxFloat64, -1, 1, 0.5, 123456.789, 2.5e-8,
}

func (f *fuzzInput) float() float64 {
	switch c := f.byte(); {
	case c < 96:
		return fuzzFloats[int(c)%len(fuzzFloats)]
	case c < 224:
		return float64(int16(uint16(f.byte())<<8|uint16(f.byte()))) / 64
	default:
		var bits uint64
		for i := 0; i < 8; i++ {
			bits = bits<<8 | uint64(f.byte())
		}
		return math.Float64frombits(bits)
	}
}

// floats draws nil, empty or n floats.
func (f *fuzzInput) floats(n int) []float64 {
	switch f.intn(3) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f.float()
	}
	return xs
}

// fuzzFragments are the string pieces each escaping rule acts on.
var fuzzFragments = []string{
	`"`, `\`, "\x00", "\x1f", "\b", "\f", "\n", "\r", "\t", "<", ">", "&",
	"\u2028", "\u2029", "\xff", "\xe2\x80", "\x80", "é", "∧", "⇒", "\ufffd", "\x7f", " ", "Age",
}

func (f *fuzzInput) str() string {
	var b []byte
	for n := f.intn(5); n > 0; n-- {
		if c := f.byte(); c&1 == 0 {
			b = append(b, fuzzFragments[int(c>>1)%len(fuzzFragments)]...)
		} else {
			b = append(b, f.byte())
		}
	}
	return string(b)
}

// ids draws a nil, empty or short cluster-ID list.
func (f *fuzzInput) ids(clusters int) []int {
	switch f.intn(3) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	ids := make([]int, 1+f.intn(3))
	for i := range ids {
		ids[i] = f.intn(clusters)
	}
	return ids
}

// fuzzResult builds a Result directly, with no mining: a schema of
// interval and nominal attributes in single- and multi-attribute
// groups with hostile names and values, clusters with nil, empty or
// set boxes, rules with or without measures and supports, an optional
// sweep, and possibly a NaN or an infinity.
func fuzzResult(data []byte) (*Result, relation.Source, *relation.Partitioning) {
	f := &fuzzInput{data: data}
	attrs := make([]relation.Attribute, 1+f.intn(4))
	for i := range attrs {
		attrs[i] = relation.Attribute{Name: strconv.Itoa(i) + ":" + f.str(), Kind: relation.Interval}
		if f.byte()&1 == 1 {
			attrs[i].Kind = relation.Nominal
		}
	}
	schema := relation.MustSchema(attrs...)
	for i := range attrs {
		if attrs[i].Kind == relation.Nominal {
			for n := 1 + f.intn(3); n > 0; n-- {
				schema.Attr(i).Dict.Code(f.str())
			}
		}
	}
	var groups []relation.Group
	for i := range attrs {
		if i > 0 && f.byte()&1 == 1 {
			groups[len(groups)-1].Attrs = append(groups[len(groups)-1].Attrs, i)
			continue
		}
		g := relation.Group{Attrs: []int{i}}
		if f.byte()&1 == 1 {
			g.Name = f.str()
		}
		groups = append(groups, g)
	}
	part, err := relation.NewPartitioning(schema, groups)
	if err != nil {
		panic(err)
	}
	shape := make(cf.Shape, len(groups))
	for g := range groups {
		shape[g] = len(groups[g].Attrs)
	}

	res := &Result{}
	for id, n := 0, f.intn(5); id < n; id++ {
		g := f.intn(len(groups))
		a := cf.NewACF(shape, g)
		a.N = 1 + int64(f.intn(3))
		for k, attr := range part.Group(g).Attrs {
			if schema.Attr(attr).Kind == relation.Nominal {
				// A code, known or one past the dictionary.
				a.LS[g][k] = float64(a.N) * float64(f.intn(schema.Attr(attr).Dict.Len()+1))
			} else {
				a.LS[g][k] = f.float()
			}
		}
		a.SS[g] = f.float()
		c := &Cluster{ID: id, Group: g, ACF: a, Size: int64(f.byte()) - 1, BoxExact: f.byte()&1 == 1}
		c.Lo, c.Hi = f.floats(shape[g]), f.floats(shape[g])
		// Describe indexes a box it finds on both sides; keep an empty
		// one paired with nil.
		if c.Lo != nil && len(c.Lo) == 0 {
			c.Hi = nil
		}
		if c.Hi != nil && len(c.Hi) == 0 {
			c.Lo = nil
		}
		res.Clusters = append(res.Clusters, c)
	}
	if len(res.Clusters) > 0 {
		for n := f.intn(4); n > 0; n-- {
			r := Rule{Antecedent: f.ids(len(res.Clusters)), Consequent: f.ids(len(res.Clusters)), Degree: f.float(), Support: -1}
			if f.byte()&1 == 1 {
				r.Support = int64(f.byte())
			}
			if f.byte()&1 == 1 {
				r.Measures = &RuleMeasures{Support: f.float(), Confidence: f.float(), Lift: f.float(), Conviction: f.float()}
			}
			res.Rules = append(res.Rules, r)
		}
	}
	switch f.intn(3) {
	case 1:
		res.Sweep = []SweepPoint{}
	case 2:
		for n := 1 + f.intn(3); n > 0; n-- {
			res.Sweep = append(res.Sweep, SweepPoint{Factor: f.float(), Rules: int(f.byte())})
		}
	}
	res.PhaseI = PhaseIStats{
		TuplesScanned: int(f.byte()), ClustersFound: int(f.byte()), FrequentClusters: len(res.Clusters),
		Rebuilds: int(f.byte()), Bytes: int(f.byte()) << 8, Duration: time.Duration(f.byte()) << f.intn(40),
	}
	res.PhaseII = PhaseIIStats{
		GraphNodes: len(res.Clusters), GraphEdges: int(f.byte()), Cliques: int(f.byte()),
		Duration: time.Duration(f.byte()) << f.intn(40),
	}
	if f.intn(4) == 3 { // not on an exhausted input
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[f.intn(3)]
		switch f.intn(3) {
		case 0:
			if len(res.Rules) > 0 {
				res.Rules[f.intn(len(res.Rules))].Degree = bad
			}
		case 1:
			if len(res.Clusters) > 0 {
				c := res.Clusters[f.intn(len(res.Clusters))]
				c.ACF.LS[c.Group][0] = bad
			}
		default:
			if len(res.Sweep) > 0 {
				res.Sweep[0].Factor = bad
			}
		}
	}
	return res, relation.NewRelation(schema), part
}

// FuzzWriteJSON differentially fuzzes WriteJSON and the description
// formatters against encoding/json and fmt over results built straight
// from the input: both sides must render the same bytes or fail alike.
// The result's Frame around its Body must be WriteJSON's bytes too, or
// fail with its error.
func FuzzWriteJSON(f *testing.F) {
	f.Add([]byte{})
	// One interval attribute named "0:\u2028" in a group of that name,
	// one boxed cluster, one rule.
	f.Add([]byte{0, 1, 0x18, 0, 1, 1, 0x18, 1, 0, 0, 12, 12, 5, 1, 2, 13, 2, 14, 1, 2, 0, 0, 2, 0, 0, 13, 1, 7, 0, 0})
	f.Add([]byte("\x03\x18\x01\x00\x19\x00\x02\x01\x02\x02\x01\x03\x02\x00\x02\x02\x02\x04\x02\x02\x02\x05\x02\x06\x02\x07\x01\x02\x02\x01"))
	f.Add([]byte("\x02\x1a\x1c\x00\x1d\x01\x03\x00\x20\x22\x24\x01\x01\x02\x00\x03\x02\x02\x02\x01\x00\x02\x06\x02\x0a\x01\x03\x02\x01\x01\x01\x05\x02\x00\x01\x02\x03\x00"))
	f.Add([]byte("\x01\x00\x00\x00\x00\x04\x00\x02\x00\x02\x08\x02\x06\x02\x09\x02\x0a\x01\x02\x03\x00\x01\x02\x04\x01\x01\x01\x02\x05\x06\x07\x08\x02\x02\x09\x00\x00\x00"))
	f.Add([]byte("\x03\x01\xe0\x01\x61\x00\x01\x02\x41\x00\x01\x00\x03\x01\x02\x00\x02\x02\x01\x10\x20\x30\x02\x02\x02\x01\x00\x02\x02\x01\x02\x03\x01\x01\x03\x02\x01\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, rel, part := fuzzResult(data)
		checkWriteJSON(t, res, rel, part)
		checkFrame(t, res, res, rel, part)
	})
}

// BenchmarkWriteJSON times the render layer over the answers query_mix
// serves from its 100K-tuple WBCD summary (datagen seed 1, derived
// thresholds, Workers 2): the default query, topK 10, and measures with
// a degree-factor sweep. Each answer runs through WriteJSON and, as a
// sibling, through writeJSONReference, the encoding/json path it
// replaced. The frame and body siblings time the two halves a server
// renders apart: NewFrame once per base, Frame.Body once per answer.
func BenchmarkWriteJSON(b *testing.B) {
	cfg := datagen.DefaultWBCDConfig()
	cfg.Tuples = 100000
	rel, err := datagen.WBCDLike(cfg)
	if err != nil {
		b.Fatal(err)
	}
	part := relation.SingletonPartitioning(rel.Schema())
	sum, opt := ingestDerived(b, rel, part, 2)
	for _, qc := range []struct {
		name string
		set  func(*QueryOptions)
	}{
		{"default", func(*QueryOptions) {}},
		{"topK=10", func(q *QueryOptions) { q.TopK = 10 }},
		{"measures+sweep", func(q *QueryOptions) {
			q.Measures = true
			q.SweepFactors = []float64{q.DegreeFactor / 4, q.DegreeFactor / 2, q.DegreeFactor}
		}},
	} {
		q := opt.Query()
		qc.set(&q)
		res, err := QuerySummary(sum, q)
		if err != nil {
			b.Fatal(err)
		}
		frame, err := NewFrame(res, rel, part)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []struct {
			name  string
			write func(io.Writer, *Result, relation.Source, *relation.Partitioning) error
		}{
			{"writer", WriteJSON},
			{"reference", writeJSONReference},
			{"frame", func(_ io.Writer, res *Result, rel relation.Source, part *relation.Partitioning) error {
				_, err := NewFrame(res, rel, part)
				return err
			}},
			{"body", func(io.Writer, *Result, relation.Source, *relation.Partitioning) error {
				_, err := frame.Body(res)
				return err
			}},
		} {
			b.Run(qc.name+"/"+w.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := w.write(io.Discard, res, rel, part); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
