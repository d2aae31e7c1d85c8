// Package metrics provides the small statistics toolkit the experiment
// harness uses: streaming summaries, percentiles, fairness and table
// rendering. Everything is deterministic and allocation-light.
//
// Concurrency: summaries and tables are single-owner accumulators — one
// goroutine adds observations (harness workers aggregate per shard, then
// merge results); rendering is read-only.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary accumulates a stream of float64 observations.
type Summary struct {
	n          uint64
	sum, sumSq float64
	min, max   float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
}

// N returns the number of observations.
func (s *Summary) N() uint64 { return s.n }

// Mean returns the arithmetic mean (0 when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Sum returns the total.
func (s *Summary) Sum() float64 { return s.sum }

// StdDev returns the population standard deviation (0 when n < 2).
func (s *Summary) StdDev() float64 {
	if s.n < 2 {
		return 0
	}
	mean := s.Mean()
	v := s.sumSq/float64(s.n) - mean*mean
	if v < 0 {
		v = 0 // numeric noise
	}
	return math.Sqrt(v)
}

// String renders the summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Percentiles computes the requested percentiles (each in [0,100]) over a
// sample slice. The input is not modified.
func Percentiles(sample []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(sample) == 0 {
		return out
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	for i, p := range ps {
		if p <= 0 {
			out[i] = sorted[0]
			continue
		}
		if p >= 100 {
			out[i] = sorted[len(sorted)-1]
			continue
		}
		rank := p / 100 * float64(len(sorted)-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		frac := rank - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return out
}

// JainFairness computes Jain's fairness index over per-flow allocations
// (throughput, goodput, ...): (Σx)² / (n·Σx²). It is 1 when every flow
// gets an equal share and approaches 1/n as one flow starves the rest.
// Empty or all-zero inputs yield 0.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Table renders aligned experiment tables: a header row plus data rows.
type Table struct {
	Title  string
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}
