package adapt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMembershipShapes(t *testing.T) {
	tri := Triangle(0, 5, 10)
	cases := []struct {
		x, want float64
	}{
		{-1, 0}, {0, 0}, {2.5, 0.5}, {5, 1}, {7.5, 0.5}, {10, 0}, {11, 0},
	}
	for _, c := range cases {
		if got := tri(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Triangle(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	sl := ShoulderLeft(2, 4)
	if sl(1) != 1 || sl(5) != 0 || math.Abs(sl(3)-0.5) > 1e-9 {
		t.Error("ShoulderLeft wrong")
	}
	sr := ShoulderRight(2, 4)
	if sr(1) != 0 || sr(5) != 1 || math.Abs(sr(3)-0.5) > 1e-9 {
		t.Error("ShoulderRight wrong")
	}
}

// Property: all membership functions stay within [0, 1].
func TestQuickMembershipBounded(t *testing.T) {
	fns := []MemberFn{
		Triangle(0, 1, 2), ShoulderLeft(1, 2), ShoulderRight(1, 2),
	}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		for _, fn := range fns {
			mu := fn(x)
			if mu < 0 || mu > 1 || math.IsNaN(mu) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func buildTestEngine(t *testing.T) *Engine {
	t.Helper()
	in, err := NewVariable("x", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.AddTerm("low", ShoulderLeft(2, 6)); err != nil {
		t.Fatal(err)
	}
	if err := in.AddTerm("high", ShoulderRight(4, 8)); err != nil {
		t.Fatal(err)
	}
	out, err := NewVariable("y", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.AddTerm("small", Triangle(0, 20, 40)); err != nil {
		t.Fatal(err)
	}
	if err := out.AddTerm("large", Triangle(60, 80, 100)); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(out)
	if err := e.AddInput(in); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Rule{If: []Cond{{"x", "low"}}, Then: Cond{"y", "small"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Rule{If: []Cond{{"x", "high"}}, Then: Cond{"y", "large"}}); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestInference(t *testing.T) {
	e := buildTestEngine(t)
	lo, err := e.Infer(map[string]float64{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-20) > 1 {
		t.Errorf("Infer(x=1) = %g, want ~20 (centroid of 'small')", lo)
	}
	hi, err := e.Infer(map[string]float64{"x": 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hi-80) > 1 {
		t.Errorf("Infer(x=9) = %g, want ~80", hi)
	}
	mid, err := e.Infer(map[string]float64{"x": 5}) // both rules partially active
	if err != nil {
		t.Fatal(err)
	}
	if !(mid > lo && mid < hi) {
		t.Errorf("Infer(x=5) = %g, want between %g and %g", mid, lo, hi)
	}
}

func TestInferenceDeadZone(t *testing.T) {
	// When no rule activates, Infer returns the output-range midpoint.
	in, err := NewVariable("x", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.AddTerm("low", ShoulderLeft(2, 4)); err != nil {
		t.Fatal(err)
	}
	out, err := NewVariable("y", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.AddTerm("small", Triangle(0, 20, 40)); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(out)
	if err := e.AddInput(in); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Rule{If: []Cond{{"x", "low"}}, Then: Cond{"y", "small"}}); err != nil {
		t.Fatal(err)
	}
	dead, err := e.Infer(map[string]float64{"x": 9})
	if err != nil {
		t.Fatal(err)
	}
	if dead != 50 {
		t.Errorf("dead-zone inference = %g, want midpoint 50", dead)
	}
}

func TestEngineValidation(t *testing.T) {
	e := buildTestEngine(t)
	if err := e.AddRule(Rule{If: []Cond{{"nope", "low"}}, Then: Cond{"y", "small"}}); err == nil {
		t.Error("unknown input accepted")
	}
	if err := e.AddRule(Rule{If: []Cond{{"x", "nope"}}, Then: Cond{"y", "small"}}); err == nil {
		t.Error("unknown term accepted")
	}
	if err := e.AddRule(Rule{If: []Cond{{"x", "low"}}, Then: Cond{"z", "small"}}); err == nil {
		t.Error("wrong output variable accepted")
	}
	if err := e.AddRule(Rule{If: []Cond{{"x", "low"}}, Then: Cond{"y", "nope"}}); err == nil {
		t.Error("unknown output term accepted")
	}
	if err := e.AddRule(Rule{Then: Cond{"y", "small"}}); err == nil {
		t.Error("empty antecedents accepted")
	}
	if _, err := e.Infer(map[string]float64{}); err == nil {
		t.Error("missing input accepted")
	}
	if _, err := NewVariable("bad", 5, 5); err == nil {
		t.Error("empty range accepted")
	}
	v, _ := NewVariable("v", 0, 1)
	if err := v.AddTerm("a", Triangle(0, 0.5, 1)); err != nil {
		t.Fatal(err)
	}
	if err := v.AddTerm("a", Triangle(0, 0.5, 1)); err == nil {
		t.Error("duplicate term accepted")
	}
}

func TestRateControllerReactsToLoss(t *testing.T) {
	c, err := NewRateController(10, 1000, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Clean network: the rate should creep up.
	r0 := c.rate
	var r float64
	for i := 0; i < 10; i++ {
		r, err = c.Observe(0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if r <= r0 {
		t.Errorf("rate did not increase on clean network: %g -> %g", r0, r)
	}
	// Heavy loss: the rate must fall sharply.
	before := c.rate
	r, err = c.Observe(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if r >= before*0.9 {
		t.Errorf("rate did not cut under heavy loss: %g -> %g", before, r)
	}
	// Bounds respected.
	for i := 0; i < 50; i++ {
		r, _ = c.Observe(0.9)
	}
	if r < 10 {
		t.Errorf("rate fell below floor: %g", r)
	}
	for i := 0; i < 200; i++ {
		r, _ = c.Observe(0)
	}
	if r > 1000 {
		t.Errorf("rate exceeded ceiling: %g", r)
	}
}

func TestRateControllerValidation(t *testing.T) {
	if _, err := NewRateController(0, 10, 5); err == nil {
		t.Error("zero min accepted")
	}
	if _, err := NewRateController(10, 5, 7); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := NewRateController(10, 100, 5); err == nil {
		t.Error("initial below min accepted")
	}
}

// TestE6Shape: over a varying-capacity trace, the fuzzy sender beats the
// high fixed rate on loss and the low fixed rate on delivered quality —
// the qualitative claim behind §1.1's adaptation requirement.
func TestE6Shape(t *testing.T) {
	capacities := SteppedCapacity([]float64{800, 200, 600, 100, 900, 300}, 30)

	ctrl, err := NewRateController(50, 1000, 400)
	if err != nil {
		t.Fatal(err)
	}
	fuzzy, err := SimulateStream(capacities, FuzzySender{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	fixedHigh, err := SimulateStream(capacities, FixedSender{RateValue: 800})
	if err != nil {
		t.Fatal(err)
	}
	fixedLow, err := SimulateStream(capacities, FixedSender{RateValue: 100})
	if err != nil {
		t.Fatal(err)
	}

	if fuzzy.AvgLoss >= fixedHigh.AvgLoss {
		t.Errorf("fuzzy loss %.3f not better than fixed-high %.3f", fuzzy.AvgLoss, fixedHigh.AvgLoss)
	}
	if fuzzy.AvgDelivered <= fixedLow.AvgDelivered {
		t.Errorf("fuzzy delivered %.1f not better than fixed-low %.1f",
			fuzzy.AvgDelivered, fixedLow.AvgDelivered)
	}
	if len(fuzzy.Steps) != len(capacities) {
		t.Errorf("steps = %d", len(fuzzy.Steps))
	}
}

func TestAIMDSender(t *testing.T) {
	s := &AIMDSender{RateValue: 100, Min: 10, Max: 1000, Add: 10, Mul: 0.5}
	r, err := s.NextRate(0)
	if err != nil || r != 110 {
		t.Errorf("additive increase: %g, %v", r, err)
	}
	r, _ = s.NextRate(0.5)
	if r != 55 {
		t.Errorf("multiplicative decrease: %g", r)
	}
	for i := 0; i < 10; i++ {
		r, _ = s.NextRate(0.9)
	}
	if r < 10 {
		t.Errorf("AIMD floor: %g", r)
	}
}

func TestSimulateStreamEdges(t *testing.T) {
	res, err := SimulateStream(nil, FixedSender{RateValue: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgDelivered != 0 || len(res.Steps) != 0 {
		t.Error("empty schedule not empty")
	}
	res, err = SimulateStream([]float64{100}, FixedSender{RateValue: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0].Loss != 0 {
		t.Error("zero offered rate has loss")
	}
}
