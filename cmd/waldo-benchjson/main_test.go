package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: github.com/wsdetect/waldo/internal/dsp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFFT256-8           	  299611	      3672 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	github.com/wsdetect/waldo/internal/dsp	2.465s
pkg: github.com/wsdetect/waldo/internal/core
BenchmarkBuildModelParallel/workers=auto-8 	      10	 104000000 ns/op	       8.00 gomaxprocs
PASS
ok  	github.com/wsdetect/waldo/internal/core	3.1s
`

func TestRunParsesBenchOutput(t *testing.T) {
	var buf bytes.Buffer
	sc := bufio.NewScanner(strings.NewReader(sampleOutput))
	if err := run(sc, json.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("header = %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2", len(rep.Benchmarks))
	}
	fft := rep.Benchmarks[0]
	if fft.Name != "BenchmarkFFT256" || fft.Procs != 8 || fft.Iters != 299611 ||
		fft.NsPerOp != 3672 || fft.Metrics["allocs/op"] != 0 || fft.Metrics["B/op"] != 0 {
		t.Errorf("fft entry = %+v", fft)
	}
	if fft.Package != "github.com/wsdetect/waldo/internal/dsp" {
		t.Errorf("fft package = %q", fft.Package)
	}
	build := rep.Benchmarks[1]
	if build.Name != "BenchmarkBuildModelParallel/workers=auto" ||
		build.Metrics["gomaxprocs"] != 8 ||
		build.Package != "github.com/wsdetect/waldo/internal/core" {
		t.Errorf("build entry = %+v", build)
	}
}

func TestRunPropagatesFailure(t *testing.T) {
	sc := bufio.NewScanner(strings.NewReader("--- FAIL: BenchmarkX\nFAIL\n"))
	if err := run(sc, json.NewEncoder(&bytes.Buffer{})); err == nil {
		t.Error("FAIL in input must surface as an error")
	}
}

func TestRunParsesFractionalNsAndCustomMetrics(t *testing.T) {
	// Fast benchmarks report fractional ns/op, and harness benchmarks
	// attach custom b.ReportMetric units like readings/s; both must
	// survive the round-trip exactly.
	const input = `pkg: github.com/wsdetect/waldo/internal/wal
BenchmarkAppend-8   	 8213988	       0.8457 ns/op	  118236 readings/s	       3 B/op
PASS
`
	var buf bytes.Buffer
	sc := bufio.NewScanner(strings.NewReader(input))
	if err := run(sc, json.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("benchmarks = %d, want 1", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.NsPerOp != 0.8457 {
		t.Errorf("ns/op = %v, want fractional 0.8457", b.NsPerOp)
	}
	if b.Metrics["readings/s"] != 118236 {
		t.Errorf("custom metric readings/s = %v, want 118236", b.Metrics["readings/s"])
	}
	if b.Metrics["B/op"] != 3 {
		t.Errorf("B/op = %v, want 3", b.Metrics["B/op"])
	}
}

func TestRunTracksPackagePerBenchmark(t *testing.T) {
	// Multi-package output: each benchmark must carry the pkg: line it
	// appeared under, not the last one seen overall.
	const input = `pkg: example.com/a
BenchmarkOne-4 	 100	 10.0 ns/op
pkg: example.com/b
BenchmarkTwo-4 	 100	 20.0 ns/op
`
	var buf bytes.Buffer
	sc := bufio.NewScanner(strings.NewReader(input))
	if err := run(sc, json.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %d, want 2", len(rep.Benchmarks))
	}
	if rep.Benchmarks[0].Package != "example.com/a" || rep.Benchmarks[1].Package != "example.com/b" {
		t.Errorf("packages = %q, %q", rep.Benchmarks[0].Package, rep.Benchmarks[1].Package)
	}
}

func TestRunRejectsMalformedBenchmarkLines(t *testing.T) {
	// A line that names a benchmark but doesn't parse is corrupt
	// output; the tool must exit non-zero, not skip the measurement.
	for _, input := range []string{
		"BenchmarkX notanint 5 ns/op\n",
		"BenchmarkY 100 garbage ns/op\n",
		"BenchmarkZ 100\n",
	} {
		sc := bufio.NewScanner(strings.NewReader(input))
		if err := run(sc, json.NewEncoder(&bytes.Buffer{})); err == nil {
			t.Errorf("run accepted malformed input %q", input)
		}
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"",
		"random text",
		"Benchmark short",
		"BenchmarkX notanint 5 ns/op",
	} {
		if _, ok := parseLine(line, ""); ok {
			t.Errorf("parseLine(%q) accepted", line)
		}
	}
}
