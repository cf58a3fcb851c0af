package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

func TestSuggestThresholdsOnPlantedData(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	rel := plantedXY(rng, 300, 30)
	part := relation.SingletonPartitioning(rel.Schema())
	d0, err := SuggestThresholds(rel, part, AdvisorOptions{})
	if err != nil {
		t.Fatalf("SuggestThresholds: %v", err)
	}
	if len(d0) != 2 {
		t.Fatalf("thresholds = %v", d0)
	}
	// Planted spread σ=0.2 around centers 40 apart: the suggestion must
	// exceed the spread and stay far below the gap.
	for g, v := range d0 {
		if v < 0.2 || v > 20 {
			t.Errorf("group %d d0 = %v, want within (0.2, 20)", g, v)
		}
	}

	// The suggested thresholds must actually work: mining with them
	// recovers the planted structure.
	opt := DefaultOptions()
	opt.DiameterThresholds = d0
	opt.FrequencyFraction = 0.05
	m, err := NewMiner(rel, part, opt)
	if err != nil {
		t.Fatalf("NewMiner: %v", err)
	}
	res, err := m.Mine()
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	perGroup := map[int]int{}
	for _, c := range res.Clusters {
		perGroup[c.Group]++
	}
	if perGroup[0] != 2 || perGroup[1] != 2 {
		t.Errorf("clusters per group with suggested d0 = %v, want 2 and 2", perGroup)
	}
	if len(res.Rules) == 0 {
		t.Error("no rules with suggested thresholds")
	}
}

func TestSuggestThresholdsNominalAndConstant(t *testing.T) {
	s := relation.MustSchema(
		relation.Attribute{Name: "job", Kind: relation.Nominal},
		relation.Attribute{Name: "flat", Kind: relation.Interval},
		relation.Attribute{Name: "x", Kind: relation.Interval},
	)
	rel := relation.NewRelation(s)
	dict := s.Attr(0).Dict
	rng := rand.New(rand.NewSource(82))
	for i := 0; i < 200; i++ {
		rel.MustAppend([]float64{dict.Code("a"), 7, rng.NormFloat64()})
	}
	part := relation.SingletonPartitioning(s)
	d0, err := SuggestThresholds(rel, part, AdvisorOptions{})
	if err != nil {
		t.Fatalf("SuggestThresholds: %v", err)
	}
	if d0[0] != 0 {
		t.Errorf("nominal group d0 = %v, want 0", d0[0])
	}
	if d0[1] != 0 {
		t.Errorf("constant group d0 = %v, want 0 (exact values)", d0[1])
	}
	if d0[2] <= 0 {
		t.Errorf("noisy group d0 = %v, want positive", d0[2])
	}
}

func TestSuggestThresholdsValidation(t *testing.T) {
	s := relation.MustSchema(relation.Attribute{Name: "x"})
	rel := relation.NewRelation(s)
	part := relation.SingletonPartitioning(s)
	if _, err := SuggestThresholds(nil, part, AdvisorOptions{}); err == nil {
		t.Error("nil relation accepted")
	}
	if _, err := SuggestThresholds(rel, nil, AdvisorOptions{}); err == nil {
		t.Error("nil partitioning accepted")
	}
	if _, err := SuggestThresholds(rel, part, AdvisorOptions{}); err == nil {
		t.Error("empty relation accepted")
	}
	other := relation.SingletonPartitioning(relation.MustSchema(relation.Attribute{Name: "y"}))
	rel.MustAppend([]float64{1})
	rel.MustAppend([]float64{2})
	if _, err := SuggestThresholds(rel, other, AdvisorOptions{}); err == nil {
		t.Error("mismatched schema accepted")
	}
}

func TestPairwiseDistances(t *testing.T) {
	pts := [][]float64{{0}, {1}, {10}}
	got := pairwiseDistances(pts)
	if len(got) != 3 || got[0] != 1 || got[1] != 10 || got[2] != 9 {
		t.Errorf("pairwise = %v", got)
	}
	if pairwiseDistances([][]float64{{1}}) != nil {
		t.Error("single point should yield nil")
	}
}

func TestSuggestFromSampleUnimodal(t *testing.T) {
	// Uniform data has no scale gap: the fallback returns a fraction of
	// the median pairwise distance.
	pts := make([][]float64, 50)
	for i := range pts {
		pts[i] = []float64{float64(i)}
	}
	d0 := suggestFromSample(pts, 3)
	if d0 <= 0 || d0 > 25 {
		t.Errorf("unimodal d0 = %v", d0)
	}
}

// TestSuggestThresholdsWorkersMatchSerial: the advisor derives each
// group's threshold as its own task, so at Workers 1, 2 and 4 the
// thresholds must be bit-identical, and a relation whose second and
// third groups overflow must fail naming the second at every count.
// The advisor's sample is AdvisorRows' rows, so SuggestThresholds over
// only those rows (what darc parses of a cluster ingest body) must give
// the same bits and the same error too, at row counts on both sides of
// the sample size and over a multi-attribute group.
func TestSuggestThresholdsWorkersMatchSerial(t *testing.T) {
	cfg := datagen.DefaultWBCDConfig()
	cfg.Tuples = 2000
	wbcd, err := datagen.WBCDLike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := relation.MustSchema(
		relation.Attribute{Name: "a"}, relation.Attribute{Name: "b"},
		relation.Attribute{Name: "c"}, relation.Attribute{Name: "d"},
	)
	overflow := relation.NewRelation(s)
	for i := 0; i < 300; i++ {
		overflow.MustAppend([]float64{float64(i % 17), 1e200 * float64(i%2*2-1), 1e300 * float64(i%3), float64(i)})
	}
	geo := relation.NewRelation(relation.MustSchema(
		relation.Attribute{Name: "Segment", Kind: relation.Nominal},
		relation.Attribute{Name: "Lat"}, relation.Attribute{Name: "Lon"}, relation.Attribute{Name: "Spend"},
	))
	rng := rand.New(rand.NewSource(94))
	for i := 0; i < 700; i++ {
		seg := geo.Schema().Attr(0).Dict.Code([]string{"urban", "suburb", "rural"}[rng.Intn(3)])
		geo.MustAppend([]float64{seg, 40 + rng.Float64()*2, -75 + rng.Float64()*2, 20 + rng.Float64()*80})
	}
	prefix := func(rel *relation.Relation, n int) *relation.Relation {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return rowsOf(rel, idx)
	}
	type dataset struct {
		name   string
		rel    *relation.Relation
		groups string
	}
	sets := []dataset{
		{"wbcd", wbcd, ""},
		{"mixedNominal", mixedNominalRelation(rand.New(rand.NewSource(93)), 600), ""},
		{"geo", geo, "Lat+Lon"},
		{"overflow", overflow, ""},
	}
	for _, n := range []int{2, 199, 200, 201} {
		sets = append(sets, dataset{fmt.Sprintf("wbcd/%d", n), prefix(wbcd, n), ""})
	}
	for _, ds := range sets {
		part, err := relation.ParseGroupsSpec(ds.rel.Schema(), ds.groups)
		if err != nil {
			t.Fatalf("%s: %v", ds.name, err)
		}
		want, wantErr := SuggestThresholds(ds.rel, part, AdvisorOptions{Workers: 1})
		check := func(how string, got []float64, err error) {
			t.Helper()
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s, %s: error %v, want %v", ds.name, how, err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, %s: %d thresholds, want %d", ds.name, how, len(got), len(want))
			}
			for g := range want {
				if math.Float64bits(got[g]) != math.Float64bits(want[g]) {
					t.Errorf("%s, %s: group %d d0 %v, want %v", ds.name, how, g, got[g], want[g])
				}
			}
		}
		for _, workers := range []int{2, 4} {
			got, err := SuggestThresholds(ds.rel, part, AdvisorOptions{Workers: workers})
			check(fmt.Sprintf("Workers=%d", workers), got, err)
		}
		rows := AdvisorRows(ds.rel.Len(), AdvisorOptions{})
		if len(rows) != min(ds.rel.Len(), 200) {
			t.Errorf("%s: AdvisorRows picked %d of %d rows", ds.name, len(rows), ds.rel.Len())
		}
		got, err := SuggestThresholds(rowsOf(ds.rel, rows), part, AdvisorOptions{Workers: 1})
		check("sampled rows only", got, err)
		if ds.name == "overflow" && (wantErr == nil || !strings.Contains(wantErr.Error(), `group "b"`)) {
			t.Errorf("overflow: error %v, want one naming group \"b\"", wantErr)
		}
	}
}

// rowsOf returns the given rows of rel, in that order, as a relation
// over rel's schema.
func rowsOf(rel *relation.Relation, rows []int) *relation.Relation {
	out := relation.NewRelation(rel.Schema())
	for _, r := range rows {
		out.MustAppend(rel.Tuple(r))
	}
	return out
}
