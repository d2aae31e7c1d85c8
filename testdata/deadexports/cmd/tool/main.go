package main

import (
	"fmt"

	"deadmod"
	"deadmod/internal/b"
)

func main() { fmt.Println(b.Measure(deadmod.Make())) }
