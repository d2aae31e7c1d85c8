package main

import (
	"fmt"

	"deadmod"
	"deadmod/internal/a"
	"deadmod/internal/b"
)

func main() { fmt.Println(b.Measure(deadmod.Make()), a.Use(&a.Fields{})) }
