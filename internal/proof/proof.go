// Package proof implements validation witnesses: Go's closest analogue of
// the paper's `ChkPacket : Packet → ⋆` dependent type (§3.3).
//
// A Checked[T] can only be constructed by a Validator, so possession of a
// Checked[T] value *is* evidence that the wrapped value passed every check
// the validator performs — "whenever we have a ChkPacket, we have a proof
// that the packet data is validated". Downstream code that demands a
// Checked[T] parameter can therefore skip re-validation entirely, which is
// the paper's "exploit static information … to remove any need for
// dynamic checks" claim, measured in experiment E3.
//
// Validators and Checked values are immutable after construction and
// safe to share across goroutines — a witness does not expire.
package proof

import (
	"errors"
	"fmt"
)

// ErrCheckFailed is the failure class wrapped by validation errors.
var ErrCheckFailed = errors.New("check failed")

// CheckError reports which named check rejected the value.
type CheckError struct {
	Validator string
	Check     string
	Err       error
}

// Error implements error.
func (e *CheckError) Error() string {
	return fmt.Sprintf("validator %s: check %s: %v", e.Validator, e.Check, e.Err)
}

// Unwrap exposes ErrCheckFailed and the underlying cause.
func (e *CheckError) Unwrap() error { return e.Err }

// Is matches ErrCheckFailed.
func (e *CheckError) Is(target error) bool { return target == ErrCheckFailed }

// Check is a named predicate over T. A nil returned error means the value
// passes.
type Check[T any] struct {
	Name string
	Fn   func(T) error
}

// Validator runs a fixed sequence of named checks and issues witnesses.
type Validator[T any] struct {
	name   string
	checks []Check[T]
	// names caches the full check-name list: a successful Validate always
	// establishes every check, so certificates share this one immutable
	// slice instead of allocating per call (Established() copies on read).
	names []string
}

// NewValidator builds a validator from its checks.
func NewValidator[T any](name string, checks ...Check[T]) *Validator[T] {
	cs := make([]Check[T], len(checks))
	copy(cs, checks)
	names := make([]string, len(cs))
	for i := range cs {
		names[i] = cs[i].Name
	}
	return &Validator[T]{name: name, checks: cs, names: names}
}

// Validate runs every check. On success it returns a Checked[T] witness
// whose certificate records which checks were established.
func (v *Validator[T]) Validate(x T) (Checked[T], error) {
	for _, c := range v.checks {
		if err := c.Fn(x); err != nil {
			return Checked[T]{}, &CheckError{Validator: v.name, Check: c.Name, Err: err}
		}
	}
	return Checked[T]{
		value: x,
		cert:  Certificate{validator: v.name, established: v.names},
		valid: true,
	}, nil
}

// Checked wraps a value together with the certificate of the checks it
// passed. The zero value is invalid; the only way to obtain a valid
// Checked[T] is through Validator.Validate.
type Checked[T any] struct {
	value T
	cert  Certificate
	valid bool
}

// Value returns the validated value.
func (c Checked[T]) Value() T { return c.value }

// Valid reports whether this witness was actually issued by a validator
// (false for zero values).
func (c Checked[T]) Valid() bool { return c.valid }

// Certificate returns the record of established checks.
func (c Checked[T]) Certificate() Certificate { return c.cert }

// Certificate records which validator issued a witness and which named
// checks it established. It corresponds to the paper's "proof (a
// certificate) that the checksum is valid and that the line count is
// correct with respect to the data".
type Certificate struct {
	validator   string
	established []string
}

// Established returns the names of the established checks.
func (c Certificate) Established() []string {
	out := make([]string, len(c.established))
	copy(out, c.established)
	return out
}

// Establishes reports whether the named check is part of the certificate.
func (c Certificate) Establishes(check string) bool {
	for _, e := range c.established {
		if e == check {
			return true
		}
	}
	return false
}

// String renders the certificate for diagnostics.
func (c Certificate) String() string {
	return fmt.Sprintf("cert(%s: %v)", c.validator, c.established)
}
