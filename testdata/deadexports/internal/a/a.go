package a

// Thing is built by New, which the facade uses.
type Thing struct{}

// New is used by the facade.
func New() *Thing { return &Thing{} }

// String completes fmt.Stringer.
func (Thing) String() string { return "thing" }

// Size completes b.Sizer, an interface the program passes.
func (Thing) Size() int { return 1 }

// Len completes no interface and nothing calls it.
func (Thing) Len() int { return 0 }

// Nowhere is used nowhere.
func Nowhere() {}

// Recursive is used only inside its own declaration.
func Recursive(n int) int {
	if n > 0 {
		return Recursive(n - 1)
	}
	return 0
}

// OwnTestOnly is used only by this package's in-package tests.
func OwnTestOnly() {}

// XTestOnly is used only by this package's external tests.
func XTestOnly() {}

// OtherTestAPI is used by a test of package b.
func OtherTestAPI() {}

func unexportedDead() {}

func unexportedTestOnly() {}
