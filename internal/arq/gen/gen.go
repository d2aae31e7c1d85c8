//go:generate go run protodsl/cmd/pdslc gen -emit go -pkg gen -o arq_gen.go ../../../examples/specs/arq.pdsl

package gen
