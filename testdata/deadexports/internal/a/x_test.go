package a_test

import (
	"testing"

	"deadmod/internal/a"
)

func TestX(t *testing.T) { a.XTestOnly() }
