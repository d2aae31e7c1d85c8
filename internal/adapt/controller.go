package adapt

import "fmt"

// RateController adapts a media send rate from observed loss and delay
// trend using the fuzzy rule base of ref [1]'s style: react strongly to
// loss, probe gently when the network is clean.
type RateController struct {
	engine   *Engine
	rate     float64
	min, max float64
	lastLoss float64
}

// NewRateController builds the controller with rate bounds and an initial
// rate.
func NewRateController(minRate, maxRate, initial float64) (*RateController, error) {
	if !(minRate > 0 && minRate < maxRate) {
		return nil, fmt.Errorf("adapt: invalid rate bounds [%g, %g]", minRate, maxRate)
	}
	if initial < minRate || initial > maxRate {
		return nil, fmt.Errorf("adapt: initial rate %g outside [%g, %g]", initial, minRate, maxRate)
	}

	loss, err := NewVariable("loss", 0, 1)
	if err != nil {
		return nil, err
	}
	for name, fn := range map[string]MemberFn{
		"low":    ShoulderLeft(0.01, 0.05),
		"medium": Triangle(0.02, 0.08, 0.2),
		"high":   ShoulderRight(0.1, 0.3),
	} {
		if err := loss.AddTerm(name, fn); err != nil {
			return nil, err
		}
	}

	trend, err := NewVariable("trend", -1, 1)
	if err != nil {
		return nil, err
	}
	for name, fn := range map[string]MemberFn{
		"falling": ShoulderLeft(-0.5, -0.05),
		"steady":  Triangle(-0.2, 0, 0.2),
		"rising":  ShoulderRight(0.05, 0.5),
	} {
		if err := trend.AddTerm(name, fn); err != nil {
			return nil, err
		}
	}

	// Output: multiplicative rate change in [0.5, 1.25].
	change, err := NewVariable("change", 0.5, 1.25)
	if err != nil {
		return nil, err
	}
	for name, fn := range map[string]MemberFn{
		"cut":      ShoulderLeft(0.55, 0.7),
		"reduce":   Triangle(0.6, 0.8, 1.0),
		"hold":     Triangle(0.9, 1.0, 1.1),
		"increase": ShoulderRight(1.02, 1.15),
	} {
		if err := change.AddTerm(name, fn); err != nil {
			return nil, err
		}
	}

	e := NewEngine(change)
	if err := e.AddInput(loss); err != nil {
		return nil, err
	}
	if err := e.AddInput(trend); err != nil {
		return nil, err
	}
	rules := []Rule{
		{If: []Cond{{"loss", "high"}}, Then: Cond{"change", "cut"}},
		{If: []Cond{{"loss", "medium"}, {"trend", "rising"}}, Then: Cond{"change", "cut"}},
		{If: []Cond{{"loss", "medium"}, {"trend", "steady"}}, Then: Cond{"change", "reduce"}},
		{If: []Cond{{"loss", "medium"}, {"trend", "falling"}}, Then: Cond{"change", "hold"}},
		{If: []Cond{{"loss", "low"}, {"trend", "rising"}}, Then: Cond{"change", "hold"}},
		{If: []Cond{{"loss", "low"}, {"trend", "steady"}}, Then: Cond{"change", "increase"}},
		{If: []Cond{{"loss", "low"}, {"trend", "falling"}}, Then: Cond{"change", "increase"}},
	}
	for _, r := range rules {
		if err := e.AddRule(r); err != nil {
			return nil, err
		}
	}
	return &RateController{engine: e, rate: initial, min: minRate, max: maxRate}, nil
}

// Observe feeds one measurement interval's loss fraction into the
// controller and returns the adapted rate.
func (c *RateController) Observe(lossRate float64) (float64, error) {
	trend := lossRate - c.lastLoss
	c.lastLoss = lossRate
	factor, err := c.engine.Infer(map[string]float64{
		"loss":  lossRate,
		"trend": trend * 5, // scale small deltas into the trend range
	})
	if err != nil {
		return 0, err
	}
	c.rate = clamp(c.rate*factor, c.min, c.max)
	return c.rate, nil
}

// StreamStep records one interval of the media-stream simulation.
type StreamStep struct {
	Capacity  float64
	Offered   float64
	Delivered float64
	Loss      float64
}

// StreamResult aggregates a stream simulation.
type StreamResult struct {
	Steps []StreamStep
	// AvgDelivered is the mean delivered rate (the stream's quality).
	AvgDelivered float64
	// AvgLoss is the mean loss fraction (stutter/artefacts).
	AvgLoss float64
	// Utilisation is delivered / capacity, averaged.
	Utilisation float64
}

// Sender chooses the offered rate each interval given last interval's
// loss fraction.
type Sender interface {
	NextRate(lastLoss float64) (float64, error)
}

// FixedSender always offers the same rate — the non-adaptive baseline.
type FixedSender struct{ RateValue float64 }

// NextRate implements Sender.
func (s FixedSender) NextRate(float64) (float64, error) { return s.RateValue, nil }

// FuzzySender adapts through a RateController.
type FuzzySender struct{ Controller *RateController }

// NextRate implements Sender.
func (s FuzzySender) NextRate(lastLoss float64) (float64, error) {
	return s.Controller.Observe(lastLoss)
}

// AIMDSender is the classic additive-increase/multiplicative-decrease
// comparator.
type AIMDSender struct {
	RateValue float64
	Min, Max  float64
	Add       float64
	Mul       float64
}

// NextRate implements Sender.
func (s *AIMDSender) NextRate(lastLoss float64) (float64, error) {
	if lastLoss > 0.02 {
		s.RateValue *= s.Mul
	} else {
		s.RateValue += s.Add
	}
	s.RateValue = clamp(s.RateValue, s.Min, s.Max)
	return s.RateValue, nil
}

// SimulateStream runs the abstract varying-bandwidth stream: each
// interval the sender offers a rate against the scheduled capacity;
// excess offered traffic is lost. This models the §1.1 media-stream
// adaptation scenario with a synthetic bandwidth trace (substituting for
// the paper's live wireless conditions — see DESIGN.md §5).
func SimulateStream(capacities []float64, s Sender) (*StreamResult, error) {
	res := &StreamResult{Steps: make([]StreamStep, 0, len(capacities))}
	lastLoss := 0.0
	var sumDelivered, sumLoss, sumUtil float64
	for _, capacity := range capacities {
		rate, err := s.NextRate(lastLoss)
		if err != nil {
			return nil, err
		}
		delivered := rate
		if delivered > capacity {
			delivered = capacity
		}
		loss := 0.0
		if rate > 0 {
			loss = (rate - delivered) / rate
		}
		res.Steps = append(res.Steps, StreamStep{
			Capacity: capacity, Offered: rate, Delivered: delivered, Loss: loss,
		})
		lastLoss = loss
		sumDelivered += delivered
		sumLoss += loss
		if capacity > 0 {
			sumUtil += delivered / capacity
		}
	}
	n := float64(len(capacities))
	if n > 0 {
		res.AvgDelivered = sumDelivered / n
		res.AvgLoss = sumLoss / n
		res.Utilisation = sumUtil / n
	}
	return res, nil
}

// SteppedCapacity builds a capacity schedule that holds each level for
// `hold` intervals — the E6 workload.
func SteppedCapacity(levels []float64, hold int) []float64 {
	out := make([]float64, 0, len(levels)*hold)
	for _, l := range levels {
		for i := 0; i < hold; i++ {
			out = append(out, l)
		}
	}
	return out
}
