package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []named `json:"end_to_end"`
	PerLayer []named `json:"per_layer"`
}

type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// output is the final line of a run.
type output struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smoke runs a shortened workload and returns its exit status, parsed
// result and full output.
func smoke(t *testing.T, workload string, trace bool, inject string) (int, output, string) {
	t.Helper()
	o := options{
		workload:  workload,
		seed:      3,
		seconds:   0.5,
		trace:     trace,
		traceDir:  t.TempDir(),
		maxPoints: 3,
		inject:    inject,
	}
	if workload == "hub-stream" {
		if raceEnabled() {
			// The race detector decodes about ten times slower, far
			// below the latency rate.
			t.Skip("hub-stream smoke runs need a build without -race")
		}
		o.seconds = 2
	}
	var stdout, stderr bytes.Buffer
	code := execute(o, &stdout, &stderr)
	text := stdout.String() + stderr.String()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, text)
	}
	return code, out, text
}

func TestWorkloadsMatchSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload untraced and traced, and checks that the
// result is correct and carries exactly the metrics BENCHMARK.json names,
// with their units.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				want := s.EndToEnd
				if trace {
					want = s.PerLayer
				}
				code, out, text := smoke(t, w.name, trace, "")
				if code != 0 || !out.Correct || out.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, attempted %d\n%s", code, out.Correct, out.Attempted, text)
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !trace && m.Name == "delivered_frac":
						// A smoke run sends a handful of frames; against
						// the followers none of them may get through.
						if got.Value < 0 || got.Value > 1 {
							t.Errorf("delivered_frac = %v, want within [0, 1]", got.Value)
						}
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestChecksFire injects one fault per output check and expects the run
// to report it and exit with status 1.
func TestChecksFire(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    bool
		inject   string
		want     string
	}{
		{"sweep-static", false, "point-error", "PacketLossDetail"},
		{"sweep-follower", false, "workers-mismatch", "1 worker gives"},
		{"sweep-static", true, "trace-mismatch", "untraced pass"},
		{"hub-stream", false, "payload-corrupt", "differs from the one sent"},
		{"hub-stream", false, "double-account", "accounted 2 times"},
		{"hub-stream", true, "decode-gap", "decode span (tolerance"},
	} {
		t.Run(tc.workload+"/"+tc.inject, func(t *testing.T) {
			code, out, text := smoke(t, tc.workload, tc.trace, tc.inject)
			if code != 1 || out.Correct {
				t.Errorf("exit %d, correct %v; want exit 1, correct false", code, out.Correct)
			}
			if !strings.Contains(text, "CHECK FAILED") || !strings.Contains(text, tc.want) {
				t.Errorf("no %q check in output:\n%s", tc.want, text)
			}
		})
	}
}
