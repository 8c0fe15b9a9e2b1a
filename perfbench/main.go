// Command perfbench is the repository's end-to-end benchmark. It drives the
// BHSS pipeline on the configurations the experiments actually run and
// reports end-to-end metrics (untraced runs) or per-layer metrics (traced
// runs), checking the program's outputs as it goes.
//
// Usage (from the repository root; run.py builds this package first):
//
//	python3 perfbench/run.py --workload sweep-static --seed 1 --seconds 24 --trace 0
//
// Workloads are sweep-static, sweep-follower and hub-stream; README.md in
// this directory says why each exists and which per-layer metric should
// move which end-to-end metric. The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. A failed output
// check prints "correct": false and exits with status 1; a run that cannot
// complete prints no result and exits with status 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"bhss/internal/dsp/simd"
	"bhss/internal/obs"
)

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what a workload hands back to the reporter.
type result struct {
	attempted, failed int
	// checks lists every failed output check; empty means correct.
	checks  []string
	metrics []metric
	// info holds values printed for people but not part of the JSON
	// result (packet loss, rung verdicts, self-time tables).
	info []string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) failCheck(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// options configures one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// traceDir receives the traced run's span file; relative to the
	// directory the benchmark runs in.
	traceDir string
	// maxPoints, when positive, truncates a sweep's point list and frames
	// (smoke tests only).
	maxPoints int
	// inject names a deliberate fault the smoke tests use to prove an
	// output check fires; empty in every real run.
	inject string
}

type workload struct {
	name string
	run  func(options) (*result, error)
}

var workloads = []workload{
	{"sweep-static", runSweepStatic},
	{"sweep-follower", runSweepFollower},
	{"hub-stream", runHubStream},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and reports it; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{traceDir: filepath.Join(".bench_build", "traces")}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 24, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	return execute(o, stdout, stderr)
}

// execute runs one workload and reports it; it returns the exit status.
func execute(o options, stdout, stderr io.Writer) int {
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i, wl := range workloads {
			names[i] = wl.name
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(names, ", "))
		return 2
	}
	res, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	return report(stdout, o, res)
}

// stamp identifies the build and machine a result came from.
func stamp(seed uint64) map[string]any {
	h := obs.NewHeader(seed, simd.Active().String())
	simdEnv := os.Getenv("BHSS_SIMD")
	if simdEnv == "" {
		simdEnv = "auto"
	}
	return map[string]any{
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         h.GoVersion,
		"goos":       h.GOOS,
		"goarch":     h.GOARCH,
		"simd":       h.SIMD,
		"bhss_simd":  simdEnv,
		"git_rev":    h.GitRev,
	}
}

// report prints the human-readable block and the final JSON line.
func report(w io.Writer, o options, res *result) int {
	st := stamp(o.seed)
	st["workload"] = o.workload
	st["trace"] = o.trace
	sj, _ := json.Marshal(st) // map of plain values: cannot fail
	fmt.Fprintf(w, "stamp %s\n", sj)
	for _, line := range res.info {
		fmt.Fprintln(w, line)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "metric %-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, c := range res.checks {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(res.checks) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf metric can get here: a program fault.
		fmt.Fprintf(w, "CHECK FAILED: unencodable result: %v\n", err)
		out.Correct = false
		out.Metrics = map[string]value{}
		line, _ = json.Marshal(out)
	}
	fmt.Fprintf(w, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuNS returns the process's user+system CPU time in nanoseconds.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
