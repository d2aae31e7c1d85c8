package b

// Sizer is passed to Measure.
type Sizer interface{ Size() int }

// Measure is used by cmd/tool.
func Measure(s Sizer) int { return s.Size() }
