// Package adapt implements the paper's first §1.1 behavioural hook:
// "adaptation decisions for applications and protocol operation, e.g. use
// of a fuzzy systems approach to deal with changes in the network
// conditions [1] to allow media-stream adaptation."
//
// It provides a small Mamdani fuzzy-inference engine (triangular and
// shoulder memberships, min-AND rules, max aggregation, centroid
// defuzzification) and a media-rate controller built on it, plus the
// synthetic varying-bandwidth stream simulation experiment E6 measures.
//
// Concurrency: controllers and stream simulations are single-owner —
// one goroutine (or one simulator event loop) drives them; nothing is
// shared between instances.
package adapt

import (
	"errors"
	"fmt"
)

// MemberFn maps a crisp value to a membership degree in [0, 1].
type MemberFn func(x float64) float64

// Triangle returns a triangular membership with feet a and c and peak b.
func Triangle(a, b, c float64) MemberFn {
	return func(x float64) float64 {
		switch {
		case x <= a || x >= c:
			return 0
		case x == b:
			return 1
		case x < b:
			return (x - a) / (b - a)
		default:
			return (c - x) / (c - b)
		}
	}
}

// ShoulderLeft is fully true below b, falling to 0 at c.
func ShoulderLeft(b, c float64) MemberFn {
	return func(x float64) float64 {
		switch {
		case x <= b:
			return 1
		case x >= c:
			return 0
		default:
			return (c - x) / (c - b)
		}
	}
}

// ShoulderRight is 0 below a, fully true above b.
func ShoulderRight(a, b float64) MemberFn {
	return func(x float64) float64 {
		switch {
		case x >= b:
			return 1
		case x <= a:
			return 0
		default:
			return (x - a) / (b - a)
		}
	}
}

// Variable is a linguistic variable: a crisp range partitioned into named
// fuzzy terms.
type Variable struct {
	Name     string
	Min, Max float64
	terms    map[string]MemberFn
}

// NewVariable creates a linguistic variable over [min, max].
func NewVariable(name string, min, max float64) (*Variable, error) {
	if max <= min {
		return nil, fmt.Errorf("adapt: variable %s: empty range [%g, %g]", name, min, max)
	}
	return &Variable{Name: name, Min: min, Max: max, terms: make(map[string]MemberFn)}, nil
}

// AddTerm registers a named term.
func (v *Variable) AddTerm(name string, fn MemberFn) error {
	if _, dup := v.terms[name]; dup {
		return fmt.Errorf("adapt: variable %s: duplicate term %q", v.Name, name)
	}
	v.terms[name] = fn
	return nil
}

// Membership evaluates the named term at x (clamped to the range).
func (v *Variable) Membership(term string, x float64) (float64, error) {
	fn, ok := v.terms[term]
	if !ok {
		return 0, fmt.Errorf("adapt: variable %s has no term %q", v.Name, term)
	}
	return fn(clamp(x, v.Min, v.Max)), nil
}

// Cond is "Var is Term".
type Cond struct {
	Var  string
	Term string
}

// Rule is a Mamdani rule: IF all antecedents (AND = min) THEN consequent.
type Rule struct {
	If   []Cond
	Then Cond
}

// Engine evaluates a rule base over registered input variables and one
// output variable.
type Engine struct {
	inputs map[string]*Variable
	output *Variable
	rules  []Rule
	// resolution is the number of samples for centroid defuzzification.
	resolution int
}

// NewEngine creates an engine with the given output variable.
func NewEngine(output *Variable) *Engine {
	return &Engine{
		inputs:     make(map[string]*Variable),
		output:     output,
		resolution: 201,
	}
}

// AddInput registers an input variable.
func (e *Engine) AddInput(v *Variable) error {
	if _, dup := e.inputs[v.Name]; dup {
		return fmt.Errorf("adapt: duplicate input variable %q", v.Name)
	}
	e.inputs[v.Name] = v
	return nil
}

// AddRule appends a rule after validating every referenced variable and
// term — the rule base is statically checked before use, in the same
// spirit as the protocol DSL's checks.
func (e *Engine) AddRule(r Rule) error {
	if len(r.If) == 0 {
		return errors.New("adapt: rule has no antecedents")
	}
	for _, c := range r.If {
		v, ok := e.inputs[c.Var]
		if !ok {
			return fmt.Errorf("adapt: rule references unknown input %q", c.Var)
		}
		if _, ok := v.terms[c.Term]; !ok {
			return fmt.Errorf("adapt: input %s has no term %q", c.Var, c.Term)
		}
	}
	if r.Then.Var != e.output.Name {
		return fmt.Errorf("adapt: consequent variable %q is not the output %q", r.Then.Var, e.output.Name)
	}
	if _, ok := e.output.terms[r.Then.Term]; !ok {
		return fmt.Errorf("adapt: output has no term %q", r.Then.Term)
	}
	e.rules = append(e.rules, r)
	return nil
}

// Infer runs Mamdani inference: per-rule activation is the min over
// antecedent memberships; the output fuzzy set is the max over rules of
// the clipped consequent memberships; the result is its centroid.
// When no rule activates, the midpoint of the output range is returned.
func (e *Engine) Infer(crisp map[string]float64) (float64, error) {
	if len(e.rules) == 0 {
		return 0, errors.New("adapt: engine has no rules")
	}
	activations := make([]float64, len(e.rules))
	for i, r := range e.rules {
		act := 1.0
		for _, c := range r.If {
			x, ok := crisp[c.Var]
			if !ok {
				return 0, fmt.Errorf("adapt: missing input %q", c.Var)
			}
			mu, err := e.inputs[c.Var].Membership(c.Term, x)
			if err != nil {
				return 0, err
			}
			if mu < act {
				act = mu
			}
		}
		activations[i] = act
	}

	// Centroid over the sampled aggregated output set.
	var num, den float64
	step := (e.output.Max - e.output.Min) / float64(e.resolution-1)
	for s := 0; s < e.resolution; s++ {
		y := e.output.Min + float64(s)*step
		agg := 0.0
		for i, r := range e.rules {
			if activations[i] == 0 {
				continue
			}
			mu, err := e.output.Membership(r.Then.Term, y)
			if err != nil {
				return 0, err
			}
			if mu > activations[i] {
				mu = activations[i] // clip
			}
			if mu > agg {
				agg = mu // max aggregation
			}
		}
		num += y * agg
		den += agg
	}
	if den == 0 {
		return (e.output.Min + e.output.Max) / 2, nil
	}
	return num / den, nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
