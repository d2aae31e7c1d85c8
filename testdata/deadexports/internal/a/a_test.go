package a

import "testing"

func TestOwn(t *testing.T) {
	OwnTestOnly()
	unexportedTestOnly()
}

func TestFields(t *testing.T) {
	if f := (Fields{}); f.TestRead != 0 {
		t.Fatal(f.TestRead)
	}
}
