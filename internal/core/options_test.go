package core

import (
	"math"
	"testing"

	"repro/internal/distance"
)

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions()
	if o.Metric != distance.D2 {
		t.Errorf("default metric = %v", o.Metric)
	}
	if o.FrequencyFraction != 0.03 {
		t.Errorf("default frequency = %v", o.FrequencyFraction)
	}
	if err := o.validate(3); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
}

func TestOptionsValidate(t *testing.T) {
	base := DefaultOptions()
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"negative diameter", func(o *Options) { o.DiameterThreshold = -1 }},
		{"wrong per-group count", func(o *Options) { o.DiameterThresholds = []float64{1} }},
		{"frequency > 1", func(o *Options) { o.FrequencyFraction = 1.5 }},
		{"negative frequency", func(o *Options) { o.FrequencyFraction = -0.1 }},
		{"negative min size", func(o *Options) { o.MinClusterSize = -1 }},
		{"zero degree factor", func(o *Options) { o.DegreeFactor = 0 }},
		{"zero graph factor", func(o *Options) { o.GraphFactor = 0 }},
		{"zero max antecedent", func(o *Options) { o.MaxAntecedent = 0 }},
		{"zero max consequent", func(o *Options) { o.MaxConsequent = 0 }},
		{"NaN diameter", func(o *Options) { o.DiameterThreshold = math.NaN() }},
		{"+Inf diameter", func(o *Options) { o.DiameterThreshold = math.Inf(1) }},
		{"-Inf diameter", func(o *Options) { o.DiameterThreshold = math.Inf(-1) }},
		{"NaN per-group diameter", func(o *Options) { o.DiameterThresholds = []float64{1, math.NaN()} }},
		{"+Inf per-group diameter", func(o *Options) { o.DiameterThresholds = []float64{math.Inf(1), 1} }},
		{"-Inf per-group diameter", func(o *Options) { o.DiameterThresholds = []float64{1, math.Inf(-1)} }},
		{"negative per-group diameter", func(o *Options) { o.DiameterThresholds = []float64{-1, 1} }},
		{"NaN frequency", func(o *Options) { o.FrequencyFraction = math.NaN() }},
		{"+Inf frequency", func(o *Options) { o.FrequencyFraction = math.Inf(1) }},
		{"NaN degree factor", func(o *Options) { o.DegreeFactor = math.NaN() }},
		{"+Inf degree factor", func(o *Options) { o.DegreeFactor = math.Inf(1) }},
		{"NaN graph factor", func(o *Options) { o.GraphFactor = math.NaN() }},
		{"+Inf graph factor", func(o *Options) { o.GraphFactor = math.Inf(1) }},
		{"NaN min rule support", func(o *Options) { o.MinRuleSupport = math.NaN() }},
		{"+Inf min rule support", func(o *Options) { o.MinRuleSupport = math.Inf(1) }},
		{"-Inf min rule support", func(o *Options) { o.MinRuleSupport = math.Inf(-1) }},
		{"negative workers", func(o *Options) { o.Workers = -1 }},
		{"min rule support without post-scan", func(o *Options) { o.MinRuleSupport = 0.1; o.PostScan = false }},
	}
	for _, c := range cases {
		o := base
		c.mutate(&o)
		if err := o.validate(2); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// A zero per-group entry still means "fall back to DiameterThreshold".
	o := base
	o.DiameterThresholds = []float64{0, 3}
	if err := o.validate(2); err != nil {
		t.Errorf("zero per-group diameter rejected: %v", err)
	}
}

func TestOptionsDiameterFor(t *testing.T) {
	o := DefaultOptions()
	o.DiameterThreshold = 5
	o.DiameterThresholds = []float64{0, 7}
	if got := o.diameterFor(0); got != 5 {
		t.Errorf("group 0 d0 = %v, want fallback 5", got)
	}
	if got := o.diameterFor(1); got != 7 {
		t.Errorf("group 1 d0 = %v, want override 7", got)
	}
}

func TestOptionsMinSize(t *testing.T) {
	o := Options{FrequencyFraction: 0.03}
	if got := o.Query().minSize(1000); got != 30 {
		t.Errorf("minSize(1000) = %d, want 30", got)
	}
	if got := o.Query().minSize(10); got != 1 {
		t.Errorf("minSize(10) = %d, want floor of 1", got)
	}
	o.MinClusterSize = 7
	if got := o.Query().minSize(1000); got != 7 {
		t.Errorf("absolute MinClusterSize not honored: %d", got)
	}
}
