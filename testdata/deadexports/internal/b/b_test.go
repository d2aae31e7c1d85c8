package b

import (
	"testing"

	"deadmod/internal/a"
)

func TestB(t *testing.T) { a.OtherTestAPI() }
