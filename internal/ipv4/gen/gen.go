//go:generate go run protodsl/cmd/pdslc gen -emit go -pkg gen -o ipv4_gen.go ../../../examples/specs/ipv4.pdsl

package gen
