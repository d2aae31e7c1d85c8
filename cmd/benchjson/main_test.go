package main

import "testing"

const sampleOutput = `goos: linux
goarch: amd64
pkg: protodsl
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAblationCodecPath/slot-append-encode    	10080992	       122.7 ns/op	       0 B/op	       0 allocs/op
BenchmarkAblationCodecPath/layout-decode         	 1987662	       609.9 ns/op	    1472 B/op	       4 allocs/op
BenchmarkRTNetLoopback    	   30000	      5344 ns/op	  95.80 MB/s	       9 B/op	       0 allocs/op
PASS
ok  	protodsl	12.3s
`

func TestParseBench(t *testing.T) {
	results, cpu := parseBench(sampleOutput, 1)
	if cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu = %q", cpu)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(results))
	}
	r := results[0]
	if r.Name != "BenchmarkAblationCodecPath/slot-append-encode" ||
		r.Iterations != 10080992 || r.NsPerOp != 122.7 || r.BPerOp != 0 || r.AllocsPerOp != 0 {
		t.Fatalf("first result: %+v", r)
	}
	if r := results[1]; r.BPerOp != 1472 || r.AllocsPerOp != 4 {
		t.Fatalf("second result: %+v", r)
	}
	if r := results[2]; r.MBPerS != 95.80 || r.NsPerOp != 5344 || r.AllocsPerOp != 0 {
		t.Fatalf("third result: %+v", r)
	}

	// Names recorded at one GOMAXPROCS must match names recorded at
	// another: the "-N" go test appends goes, a sub-benchmark's own
	// numeric suffix stays, and at 1 go test appends nothing.
	for _, tc := range []struct {
		procs int
		line  string
		want  string
	}{
		{2, "BenchmarkSum8-2 \t 100\t 1.5 ns/op", "BenchmarkSum8"},
		{4, "BenchmarkRTNetLoopback-4 \t 100\t 5344 ns/op", "BenchmarkRTNetLoopback"},
		{2, "BenchmarkAblationChecksums/size-64-2 \t 100\t 9 ns/op", "BenchmarkAblationChecksums/size-64"},
		{4, "BenchmarkAblationChecksums/size-64-4 \t 100\t 9 ns/op", "BenchmarkAblationChecksums/size-64"},
		{64, "BenchmarkAblationChecksums/size-64-64 \t 100\t 9 ns/op", "BenchmarkAblationChecksums/size-64"},
		{1, "BenchmarkAblationChecksums/size-64 \t 100\t 9 ns/op", "BenchmarkAblationChecksums/size-64"},
		{1, "BenchmarkAblationChecksums/size-1 \t 100\t 9 ns/op", "BenchmarkAblationChecksums/size-1"},
	} {
		results, _ := parseBench(tc.line, tc.procs)
		if len(results) != 1 || results[0].Name != tc.want {
			t.Errorf("procs=%d %q: parsed %+v, want name %q", tc.procs, tc.line, results, tc.want)
		}
	}
}

func TestParseBenchEmpty(t *testing.T) {
	results, _ := parseBench("PASS\nok \tprotodsl\t0.1s\n", 1)
	if len(results) != 0 {
		t.Fatalf("parsed %d results from non-benchmark output", len(results))
	}
}
