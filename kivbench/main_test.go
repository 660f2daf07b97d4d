package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tiny shrinks a workload to a pass that takes about a second.
var tiny = sizes{scale: 0.02, schedules: 20, setupReps: 1}

func args(workload, seed, trace string) []string {
	return []string{"--workload", workload, "--seed", seed, "--seconds", "0", "--trace", trace}
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runTiny(t *testing.T, args []string, want expectations) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr, want, tiny)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%v: last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, r, stdout.String() + stderr.String()
}

// benchmarkFile is the part of BENCHMARK.json these tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTinyPassPrintsEveryMetric runs every workload at a tiny size, untraced
// and traced, and checks that the result line carries every metric
// BENCHMARK.json names with its unit, and that every check passed. The
// traced runs use a seed other than the default, held out from tuning.
func TestTinyPassPrintsEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, tc := range []struct {
			trace, seed string
			defs        []struct{ Name, Unit string }
		}{{"0", "1", b.EndToEnd}, {"1", "7", b.PerLayer}} {
			code, r, out := runTiny(t, args(w, tc.seed, tc.trace), defaultExpectations)
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w, tc.trace, code, r, out)
			}
			if len(r.Metrics) != len(tc.defs) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", w, tc.trace, len(r.Metrics), len(tc.defs))
			}
			for _, d := range tc.defs {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %q", w, tc.trace, d.Name, m, d.Unit)
				}
			}
			if tc.trace == "0" {
				for _, d := range b.EndToEnd {
					if r.Metrics[d.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w, d.Name)
					}
				}
			}
		}
	}
}

// TestTamperedExpectationFails requires prevention explorations to diverge,
// which a correct engine never lets happen: the run must fail its checks.
func TestTamperedExpectationFails(t *testing.T) {
	tampered := expectations{VanillaDiverges: true, PreventionDiverges: true}
	code, r, out := runTiny(t, args("explore-random", "1", "0"), tampered)
	if code == 0 || r.Correct || r.Failed == 0 {
		t.Fatalf("tampered expectation passed: exit %d, result %+v\n%s", code, r, out)
	}
	if !strings.Contains(out, "no schedule diverged") {
		t.Errorf("failure does not say why:\n%s", out)
	}
}

func TestCheckerFlagsChangedCounters(t *testing.T) {
	c := newChecker(defaultExpectations)
	c.record("NSS/vanilla", fingerprint{1, 2, 3, 4}, nil)
	c.record("NSS/vanilla", fingerprint{1, 2, 3, 4}, nil)
	if c.failed != 0 {
		t.Fatalf("identical repetition failed: %v", c.failures)
	}
	c.record("NSS/vanilla", fingerprint{1, 2, 3, 5}, nil)
	if c.ops != 3 || c.failed != 1 {
		t.Fatalf("ops %d failed %d, want 3 and 1", c.ops, c.failed)
	}
}

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-suite", "--trace", "2"},
		{"--workload", "paper-suite", "extra"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, &out, defaultExpectations, tiny); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 9}, 1, 9},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	lat := make([]uint64, 560)
	for i := range lat {
		lat[i] = uint64(i + 1)
	}
	p, v, ok := tailPercentile(lat, 10)
	if !ok || p != 98 || v != 549 {
		t.Fatalf("tailPercentile = p%d %d %v, want p98 549", p, v, ok)
	}
}
