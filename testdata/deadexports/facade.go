// Package deadmod is the root facade of the dead-symbol gate's test
// module: one declaration per class the gate tells apart.
package deadmod

import "deadmod/internal/a"

// Kept is named by Make's signature only: kept with Make.
type Kept = a.Thing

// Make is used by cmd/tool.
func Make() *Kept { return a.New() }

// Unused is used by nothing outside the root.
func Unused(n Named) {}

// Named is used only by Unused, which nothing keeps.
type Named = a.Thing
