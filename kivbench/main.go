// Command kivbench is the repository's benchmark. It runs one workload as
// a closed loop in one process on one worker, checks every result, and
// prints the metrics named in BENCHMARK.json, last line as JSON:
//
//	kivbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: paper-suite and crossing-heavy run whole programs with
// core.Run; explore-random runs explore.Differential on every bug of the
// corpus. The seed is the scheduler seed of every VM run and the base seed
// of every differential.
//
// An untraced run (--trace 0) repeats the set-up, then runs passes over
// the workload's inputs until --seconds have elapsed, and reports the
// end-to-end metrics. A traced run (--trace 1) spends half of --seconds on
// an untraced phase and half on a traced one, and reports the per-layer
// metrics with the traced-minus-untraced difference of each end-to-end
// metric. See README.md for what each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"kivati/internal/explore"
	"kivati/internal/workloads"
)

// minPasses is the least number of passes a phase runs, however short
// --seconds is, so that every operation has a repetition to check its
// deterministic counters against.
const minPasses = 2

// bench is one workload.
type bench interface {
	// setup builds everything the passes run, adding each input's time to
	// st. It is timed as setup_s.
	setup(tr *tracer, st *setupTimes) error
	// breakdown times the set-up one layer call at a time over the
	// workload's sources (traced phase only; not part of setup_s).
	breakdown(tr *tracer) (frontEnd, error)
	// pass runs every input once; n alternates the configuration order.
	pass(tr *tracer, n int, acc *passResult, chk *checker)
}

// sizes are the workloads' input sizes and how often a phase repeats the
// set-up. The benchmark always runs defaultSizes; tests shrink them.
type sizes struct {
	scale     float64 // program size of the VM workloads (workloads.Scale)
	schedules int     // schedule budget per mode of one differential
	// A phase repeats the set-up at least setupReps times and for at least
	// setupSecs: set-ups take milliseconds, and the median of many is
	// steadier than the median of a few.
	setupReps int
	setupSecs float64
}

var defaultSizes = sizes{scale: 1.0, schedules: 100, setupReps: 5, setupSecs: 2}

var workloadNames = []string{"paper-suite", "crossing-heavy", "explore-random"}

func newBench(name string, seed int64, sz sizes) (bench, error) {
	s := workloads.Scale(sz.scale)
	switch name {
	case "paper-suite":
		return &vmBench{specs: workloads.PerfSuite(s), configs: []vmConfig{vanilla, prevention}, seed: seed}, nil
	case "crossing-heavy":
		return &vmBench{specs: []*workloads.Spec{workloads.ArrayScan(s)}, configs: []vmConfig{vanilla, prevention, preventionBase}, seed: seed}, nil
	case "explore-random":
		return newExploreBench(explore.Options{
			Strategy:    explore.Random,
			Engine:      explore.EngineSnapshot,
			Schedules:   sz.schedules,
			Seed:        seed,
			Cores:       1,
			Parallelism: 1,
		})
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	// One worker runs the loop, so one processor is all the benchmark
	// needs. With two, the concurrent garbage collector keeps a second
	// virtual CPU busy; on a shared two-CPU host that doubled the time the
	// hypervisor took CPUs away and made pass times spread about three
	// times wider.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, defaultExpectations, defaultSizes))
}

// run executes the benchmark and returns the exit code: 0 when every
// check passed, 1 when a check failed or the run could not complete, 2 on
// bad arguments.
func run(args []string, stdout, stderr io.Writer, want expectations, sz sizes) int {
	fs := flag.NewFlagSet("kivbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "scheduler seed of VM runs and base seed of exploration")
	seconds := fs.Float64("seconds", 10, "measured time of the run")
	traced := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	spanDir := fs.String("spans", "", "directory to write the traced run's spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "kivbench: bad arguments")
		fs.Usage()
		return 2
	}
	b, err := newBench(*workload, *seed, sz)
	if err != nil {
		fmt.Fprintln(stderr, "kivbench:", err)
		return 2
	}

	chk := newChecker(want)
	phaseSecs := *seconds
	if *traced == 1 {
		phaseSecs /= 2
	}
	un, err := runPhase(b, newTracer(false), chk, sz, phaseSecs)
	if err != nil {
		fmt.Fprintln(stderr, "kivbench:", err)
		return 1
	}
	var tr *phaseResult
	var metrics map[string]float64
	defs := endToEnd
	if *traced == 1 {
		t := newTracer(true)
		if tr, err = runPhase(b, t, chk, sz, phaseSecs); err != nil {
			fmt.Fprintln(stderr, "kivbench:", err)
			return 1
		}
		if *spanDir != "" {
			path, err := t.write(*spanDir, *workload, *seed)
			if err != nil {
				fmt.Fprintln(stderr, "kivbench: writing spans:", err)
				return 1
			}
			fmt.Fprintf(stderr, "kivbench: %d spans written to %s\n", len(t.spans), path)
		}
		metrics, defs = perLayerMetrics(un, tr), perLayer
	} else {
		metrics = un.endToEnd()
	}

	printReport(stdout, *workload, *seed, un, tr, chk)
	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Correct: chk.failed == 0, Attempted: chk.ops, Failed: chk.failed, Metrics: map[string]json.RawMessage{}}
	for _, d := range defs {
		v := metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "kivbench: metric %s is not a number\n", d.name)
			return 1
		}
		raw, err := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v, d.unit})
		if err != nil {
			fmt.Fprintln(stderr, "kivbench:", err)
			return 1
		}
		out.Metrics[d.name] = raw
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "kivbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if chk.failed > 0 {
		for _, f := range chk.failures {
			fmt.Fprintln(stderr, "kivbench: check failed:", f)
		}
		return 1
	}
	return 0
}

// runPhase repeats the set-up (see sizes), then runs passes until
// phaseSecs have elapsed (and at least minPasses).
func runPhase(b bench, t *tracer, chk *checker, sz sizes, phaseSecs float64) (*phaseResult, error) {
	ph := &phaseResult{}
	setupStart := time.Now()
	for ph.setups.n < sz.setupReps || time.Since(setupStart).Seconds() < sz.setupSecs {
		// Every set-up and pass starts from a collected heap, so neither
		// its time nor the peak memory it reaches depends on how much
		// garbage the one before left.
		runtime.GC()
		m := t.begin("setup")
		err := b.setup(t, &ph.setups)
		t.end(m)
		ph.setups.n++
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if t.on {
			fe, err := b.breakdown(t)
			if err != nil {
				return nil, fmt.Errorf("front-end breakdown: %w", err)
			}
			ph.frontEnds = append(ph.frontEnds, fe)
		}
	}
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start).Seconds() < phaseSecs; n++ {
		t.run = n + 1
		acc := newPassResult()
		runtime.GC()
		a0, g0 := memSample()
		m := t.begin("pass")
		b.pass(t, n, acc, chk)
		acc.secs = t.end(m)
		a1, g1 := memSample()
		acc.allocMB, acc.gcCycles = a1-a0, g1-g0
		ph.passes = append(ph.passes, acc)
	}
	t.run = 0
	ph.refSecs = t.speed.samples
	ph.maxRSSMB = maxRSSMB()
	if t.on {
		ph.spanSelfMs, ph.spanTotalMs = t.selfTimes(), t.totals()
	}
	return ph, nil
}

// printReport writes the human-readable report: every end-to-end metric
// the workload defines, with its spread and sample count, then the traced
// phase's per-layer view when there is one.
func printReport(w io.Writer, workload string, seed int64, un, tr *phaseResult, chk *checker) {
	fmt.Fprintf(w, "kivbench %s seed=%d passes=%d ops=%d failed=%d ops_failed_frac=%g\n",
		workload, seed, len(un.passes), chk.ops, chk.failed, float64(chk.failed)/float64(max(chk.ops, 1)))
	fmt.Fprintln(w, "end-to-end (untraced phase):")
	spread := func(name, unit string, xs []float64, what string) {
		if len(xs) == 0 {
			return
		}
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "  %-32s %12.4f %-9s median of %d %s, q1 %.4f q3 %.4f\n", name, median(xs), unit, len(xs), what, q1, q3)
	}
	// A rate's value sums each operation's median time; its spread is
	// that of the per-pass host rates. An empty mode takes every operation.
	rate := func(name, unit, mode string, instructions bool) {
		xs := un.rates(mode, instructions)
		if len(xs) == 0 {
			return
		}
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "  %-32s %12.4f %-9s scaled; host %.4f; per-operation medians over %d passes; per-pass host q1 %.4f q3 %.4f\n",
			name, un.rate(mode, instructions, true), unit, un.rate(mode, instructions, false), len(xs), q1, q3)
	}
	exact := func(name, unit string, v float64, note string) {
		fmt.Fprintf(w, "  %-32s %12.4f %-9s %s\n", name, v, unit, note)
	}
	fmt.Fprintf(w, "  %-32s %12.4f %-9s scaled; host %.4f; per-input medians over %d set-ups\n",
		"setup_s", un.setups.total(true), "s", un.setups.total(false), un.setups.n)
	spread("reference job", "ms", scaleBy(un.refSecs, 1e3), fmt.Sprintf("timings, nominal %g", refNominalSecs*1e3))
	rate("schedules_per_s", "1/s", "", false)
	for _, c := range []vmConfig{vanilla, prevention, preventionBase} {
		rate("schedules_per_s."+c.name, "1/s", c.name, false)
	}
	for _, c := range []vmConfig{vanilla, prevention, preventionBase} {
		rate("minstr_per_s."+c.name, "Minstr/s", c.name, true)
	}
	for _, c := range []vmConfig{prevention, preventionBase} {
		if v, ok := un.first().tickOverheadPct(c.name); ok {
			exact("tick_overhead_pct."+c.name, "%", v, "virtual clock, identical every pass")
		}
	}
	if p50, tailP, tail, n := un.latency(); n > 0 {
		exact("request_latency_p50_ticks", "ticks", float64(p50), fmt.Sprintf("%d requests", n))
		exact("request_latency_tail_ticks", "ticks", float64(tail), fmt.Sprintf("p%d of %d requests, %d beyond", tailP, n, n-(tailP*n+99)/100))
	}
	exact("max_rss_mb", "MB", un.maxRSSMB, "process peak")
	exact("ops", "count", float64(chk.ops), "operations attempted (VM runs or per-bug differentials)")
	exact("ops_failed_frac", "ratio", float64(chk.failed)/float64(max(chk.ops, 1)), "")

	ratios := map[string][]float64{}
	for _, p := range un.passes {
		for name, r := range p.pairRatio {
			ratios[name] = append(ratios[name], r)
		}
	}
	names := make([]string, 0, len(ratios))
	for n := range ratios {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintln(w, "paired host ratios, prevention / vanilla (median over passes):")
	}
	for _, n := range names {
		spread(n, "ratio", ratios[n], "passes")
	}
	spread("kernel.overhead_ms", "ms", un.perPass(func(p *passResult) (float64, bool) { return p.overheadSecs * 1e3, len(p.pairRatio) > 0 }), "passes")
	spread("explore.differential_ms", "ms", un.perPass(func(p *passResult) (float64, bool) {
		return median(p.differentialMs), len(p.differentialMs) > 0
	}), "passes (per bug)")

	if tr == nil {
		return
	}
	fmt.Fprintf(w, "per-layer (traced phase, %d passes):\n", len(tr.passes))
	layer := perLayerMetrics(un, tr)
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-44s %14.4f %s\n", d.name, layer[d.name], d.unit)
	}
	fmt.Fprintln(w, "span self time by name (traced phase, ms):")
	for _, n := range sortedNames(tr.spanSelfMs) {
		fmt.Fprintf(w, "  %-24s self %12.3f  total %12.3f\n", n, tr.spanSelfMs[n], tr.spanTotalMs[n])
	}
}

func scaleBy(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
