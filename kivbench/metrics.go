package main

import (
	"math"
	"runtime"
	"syscall"

	"kivati/internal/explore"
	"kivati/internal/kernel"
	"kivati/internal/vm"
	"kivati/internal/workloads"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports (--trace 0). Every
// workload reports all of them; BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"schedules_per_s", "1/s"},
	{"tick_overhead_pct.prevention", "%"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports (--trace 1). A count is 0
// on a workload that does not exercise its layer; README.md says which
// end-to-end metric each should move, and on which workload.
var perLayer = []metricDef{
	{"minic.parse_ms", "ms"},
	{"annotate.annotate_ms", "ms"},
	{"annotate.ars", "count"},
	{"compile.compile_ms", "ms"},
	{"valrange.analyze_ms", "ms"},
	{"vm.run_ms", "ms"},
	{"vm.fast_residency_pct", "%"},
	{"vm.instr_per_window", "count"},
	{"vm.demote.armed_overlap", "count"},
	{"vm.demote.unbounded", "count"},
	{"vm.demote.checked_overlap", "count"},
	{"vm.demote.timer_edge", "count"},
	{"vm.demote.would_trap", "count"},
	{"vm.decisions", "count"},
	{"vm.same_pick_continues", "count"},
	{"vm.ns_per_decision", "ns"},
	{"vm.ticks.vanilla", "count"},
	{"vm.ticks.prevention", "count"},
	{"vm.ticks.prevention_base", "count"},
	{"kernel.crossings", "count"},
	{"kernel.crossings.prevention_base", "count"},
	{"kernel.crossings_per_minstr", "1/Minstr"},
	{"kernel.begin_kernel", "count"},
	{"kernel.end_kernel", "count"},
	{"kernel.clear_kernel", "count"},
	{"kernel.traps", "count"},
	{"kernel.spurious_traps", "count"},
	{"kernel.missed_ars", "count"},
	{"kernel.epoch_waits", "count"},
	{"kernel.suspensions", "count"},
	{"kernel.timeouts", "count"},
	{"kernel.overhead_ms", "ms"},
	{"kernel.paired_ratio", "ratio"},
	{"userlib.user_handled", "count"},
	{"userlib.whitelist_skips", "count"},
	{"userlib.absorb_pct", "%"},
	{"hw.delta_arms", "count"},
	{"hw.full_arms", "count"},
	{"explore.differential_ms", "ms"},
	{"explore.session_open_ms", "ms"},
	{"explore.us_per_schedule", "us"},
	{"explore.restores", "count"},
	{"explore.vanilla_divergences", "count"},
	{"explore.prevention_divergences", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"minstr_per_s.vanilla", "Minstr/s"},
	{"minstr_per_s.prevention", "Minstr/s"},
	{"minstr_per_s.prevention_base", "Minstr/s"},
	{"tick_overhead_pct.prevention_base", "%"},
	{"request_latency_p50_ticks", "ticks"},
	{"request_latency_tail_ticks", "ticks"},
	{"trace.delta_pct.setup_s", "%"},
	{"trace.delta_pct.schedules_per_s", "%"},
	{"trace.delta_pct.tick_overhead_pct.prevention", "%"},
	{"trace.delta_pct.max_rss_mb", "%"},
}

// modeStats is the virtual-clock work one mode (vanilla, prevention,
// prevention_base) did in one pass.
type modeStats struct {
	ticks uint64
	// ticksPerExec is the mean ticks of one execution, per program or bug.
	ticksPerExec map[string]float64
}

// opSample is one operation of a pass: a VM run of one program under one
// config, or the differential of one bug, which runs both modes.
type opSample struct {
	mode         string  // the VM config's name; empty for a differential
	secs         float64 // host seconds
	scaled       float64 // host seconds scaled to the nominal host speed
	execs        int
	instructions uint64 // VM runs only
}

// work is the operation's executions, or its million instructions.
func (op opSample) work(instructions bool) float64 {
	if instructions {
		return float64(op.instructions) / 1e6
	}
	return float64(op.execs)
}

// passResult is what one closed-loop pass measured.
type passResult struct {
	ops            map[string]opSample
	modes          map[string]*modeStats
	pairRatio      map[string]float64 // per program: prevention / vanilla host time
	overheadSecs   float64            // sum over programs of prevention - vanilla host time
	runMs          []float64          // host ms per VM execution
	differentialMs []float64          // host ms per bug
	secs           float64

	instructions, fastInstr, fastWindows     uint64
	demotions                                vm.Demotions
	decisions, samePick, deltaArms, fullArms uint64
	kernel                                   kernel.Stats // prevention runs
	baseCrossings                            uint64
	latencies                                []uint64 // prevention runs of server programs
	restores                                 int
	vanillaDiv, preventionDiv                int

	allocMB  float64
	gcCycles uint32
}

func newPassResult() *passResult {
	return &passResult{ops: map[string]opSample{}, modes: map[string]*modeStats{}, pairRatio: map[string]float64{}}
}

func (r *passResult) mode(name string) *modeStats {
	m, ok := r.modes[name]
	if !ok {
		m = &modeStats{ticksPerExec: map[string]float64{}}
		r.modes[name] = m
	}
	return m
}

func (r *passResult) addVM(spec *workloads.Spec, c vmConfig, res *vm.Result, secs, scaled float64) {
	m := r.mode(c.name)
	m.ticks += res.Ticks
	m.ticksPerExec[spec.Name] = float64(res.Ticks)
	r.ops[spec.Name+"/"+c.name] = opSample{c.name, secs, scaled, 1, res.Stats.Instructions}
	r.runMs = append(r.runMs, secs*1e3)

	r.instructions += res.Stats.Instructions
	r.fastInstr += res.FastInstructions
	r.fastWindows += res.FastWindows
	d := &r.demotions
	d.ArmedOverlap += res.Demotions.ArmedOverlap
	d.Unbounded += res.Demotions.Unbounded
	d.CheckedOverlap += res.Demotions.CheckedOverlap
	d.TimerEdge += res.Demotions.TimerEdge
	d.WouldTrap += res.Demotions.WouldTrap
	r.decisions += res.Decisions
	r.samePick += res.SamePickContinues
	r.deltaArms += res.DeltaArms
	r.fullArms += res.FullArms
	switch c {
	case prevention:
		addKernel(&r.kernel, res.Stats)
		if spec.Requests != nil {
			r.latencies = append(r.latencies, res.Latencies...)
		}
	case preventionBase:
		r.baseCrossings += res.Stats.KernelEntries()
	}
}

// addDifferential records the differential of one bug. Its executions are
// both modes' schedules and the serial reference runs.
func (r *passResult) addDifferential(subject string, d *explore.DiffReport, secs, scaled float64) {
	execs := serialRefs
	for _, rep := range []*explore.Report{d.Vanilla, d.Prevention} {
		m := r.mode(string(rep.Mode))
		var ticks uint64
		for _, run := range rep.Runs {
			ticks += run.Ticks
			r.decisions += uint64(run.Decisions)
			r.samePick += run.SamePickContinues
			r.deltaArms += run.DeltaArms
			r.fullArms += run.FullArms
		}
		m.ticks += ticks
		if len(rep.Runs) > 0 {
			m.ticksPerExec[subject] = float64(ticks) / float64(len(rep.Runs))
		}
		if st := rep.Stats; st != nil {
			r.restores += st.Restores
		}
		execs += len(rep.Runs)
	}
	r.vanillaDiv += d.VanillaDivergences()
	r.preventionDiv += d.PreventionDivergences()
	r.ops[subject] = opSample{"", secs, scaled, execs, 0}
	r.runMs = append(r.runMs, secs*1e3/float64(execs))
	r.differentialMs = append(r.differentialMs, secs*1e3)
}

func addKernel(dst, s *kernel.Stats) {
	dst.Instructions += s.Instructions
	dst.Begins += s.Begins
	dst.Ends += s.Ends
	dst.Clears += s.Clears
	dst.BeginKernel += s.BeginKernel
	dst.EndKernel += s.EndKernel
	dst.ClearKernel += s.ClearKernel
	dst.UserHandled += s.UserHandled
	dst.WhitelistSkips += s.WhitelistSkips
	dst.Traps += s.Traps
	dst.SpuriousTraps += s.SpuriousTraps
	dst.MissedARs += s.MissedARs
	dst.EpochWaits += s.EpochWaits
	dst.Suspensions += s.Suspensions
	dst.Timeouts += s.Timeouts
}

// rate is the mode's executions (or million instructions) per host second
// in this pass, over every operation when mode is empty; ok is false when
// the pass did not run the mode.
func (r *passResult) rate(mode string, instructions bool) (float64, bool) {
	var work, secs float64
	for _, op := range r.ops {
		if mode != "" && op.mode != mode {
			continue
		}
		secs += op.secs
		work += op.work(instructions)
	}
	return work / secs, secs > 0 && work > 0
}

// tickOverheadPct is the geometric mean over programs (or bugs) of the
// mode's ticks per execution over vanilla's, as a percentage above 1.
func (r *passResult) tickOverheadPct(mode string) (float64, bool) {
	m, v := r.modes[mode], r.modes[vanilla.name]
	if m == nil || v == nil {
		return 0, false
	}
	// Sorted, so the sum inside geomean runs in the same order every time
	// and the value repeats to the last digit.
	var ratios []float64
	for _, name := range sortedNames(m.ticksPerExec) {
		if vt := v.ticksPerExec[name]; vt > 0 {
			ratios = append(ratios, m.ticksPerExec[name]/vt)
		}
	}
	if len(ratios) == 0 {
		return 0, false
	}
	return (geomean(ratios) - 1) * 100, true
}

// phaseResult is one phase of a run: repeated set-ups, then passes.
type phaseResult struct {
	setups      setupTimes
	refSecs     []float64 // reference job times
	frontEnds   []frontEnd
	passes      []*passResult
	maxRSSMB    float64 // process peak when the phase ended
	spanSelfMs  map[string]float64
	spanTotalMs map[string]float64
}

// setupTimes holds the set-ups' seconds per input (program or bug).
type setupTimes struct {
	n            int // set-ups timed
	host, scaled map[string][]float64
}

// add records one input's host seconds in a set-up, with the scale k of
// the reference job timed just before it.
func (st *setupTimes) add(key string, secs, k float64) {
	if st.host == nil {
		st.host, st.scaled = map[string][]float64{}, map[string][]float64{}
	}
	st.host[key] = append(st.host[key], secs)
	st.scaled[key] = append(st.scaled[key], secs*k)
}

// total is a set-up's time: the sum over inputs of each input's median,
// as the rates take it over operations.
func (st *setupTimes) total(scaled bool) float64 {
	times := st.host
	if scaled {
		times = st.scaled
	}
	sum := 0.0
	for _, key := range sortedNames(times) {
		sum += median(times[key])
	}
	return sum
}

// perPass returns f over the passes where it is defined.
func (ph *phaseResult) perPass(f func(*passResult) (float64, bool)) []float64 {
	var xs []float64
	for _, p := range ph.passes {
		if v, ok := f(p); ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func (ph *phaseResult) rates(mode string, instructions bool) []float64 {
	return ph.perPass(func(p *passResult) (float64, bool) { return p.rate(mode, instructions) })
}

// rate is the mode's executions (or million instructions) per second, over
// every operation when mode is empty, with the time of each operation taken
// as its median over the passes, so that a slow spell that hits fewer than
// half of an operation's repetitions does not move it. scaled selects
// nominal-speed seconds (see hostspeed.go) over raw host seconds.
func (ph *phaseResult) rate(mode string, instructions, scaled bool) float64 {
	times := map[string][]float64{}
	work := map[string]float64{}
	for _, p := range ph.passes {
		for key, op := range p.ops {
			if mode != "" && op.mode != mode {
				continue
			}
			secs := op.secs
			if scaled {
				secs = op.scaled
			}
			times[key] = append(times[key], secs)
			work[key] = op.work(instructions)
		}
	}
	var w, s float64
	for key, ts := range times {
		w += work[key]
		s += median(ts)
	}
	if s <= 0 {
		return 0
	}
	return w / s
}

// first is the first pass. Its virtual-clock counters stand for every
// pass: the checker fails the run if a repetition differs.
func (ph *phaseResult) first() *passResult { return ph.passes[0] }

// endToEnd computes the untraced metrics of the phase.
func (ph *phaseResult) endToEnd() map[string]float64 {
	ov, _ := ph.first().tickOverheadPct(prevention.name)
	return map[string]float64{
		"setup_s":                      ph.setups.total(true),
		"schedules_per_s":              ph.rate("", false, true),
		"tick_overhead_pct.prevention": ov,
		"max_rss_mb":                   ph.maxRSSMB,
	}
}

// latency returns the pooled request latencies of the first pass with the
// p50 and the tail percentile that keeps at least ten samples beyond it.
func (ph *phaseResult) latency() (p50 uint64, tailP int, tail uint64, n int) {
	lat := ph.first().latencies
	if len(lat) == 0 {
		return 0, 0, 0, 0
	}
	tailP, tail, _ = tailPercentile(lat, 10)
	return percentileU64(lat, 50), tailP, tail, len(lat)
}

// perLayerMetrics computes the traced metrics: layer work from the traced
// phase tr, host rates from the untraced phase un, and the tracing
// overhead as the traced-minus-untraced difference of each end-to-end
// metric. A metric the workload does not produce is absent (reported 0).
func perLayerMetrics(un, tr *phaseResult) map[string]float64 {
	f := tr.first()
	out := map[string]float64{}
	med := func(get func(frontEnd) float64) float64 {
		xs := make([]float64, len(tr.frontEnds))
		for i, fe := range tr.frontEnds {
			xs[i] = get(fe)
		}
		return median(xs)
	}
	out["minic.parse_ms"] = med(func(fe frontEnd) float64 { return fe.parseSecs * 1e3 })
	out["annotate.annotate_ms"] = med(func(fe frontEnd) float64 { return fe.annotateSecs * 1e3 })
	out["annotate.ars"] = med(func(fe frontEnd) float64 { return float64(fe.ars) })
	out["valrange.analyze_ms"] = med(func(fe frontEnd) float64 { return fe.valrangeSecs * 1e3 })
	out["compile.compile_ms"] = med(func(fe frontEnd) float64 { return fe.compileSecs * 1e3 })

	var runMs []float64
	for _, p := range tr.passes {
		runMs = append(runMs, p.runMs...)
	}
	out["vm.run_ms"] = median(runMs)
	if f.instructions > 0 {
		out["vm.fast_residency_pct"] = 100 * float64(f.fastInstr) / float64(f.instructions)
	}
	if f.fastWindows > 0 {
		out["vm.instr_per_window"] = float64(f.fastInstr) / float64(f.fastWindows)
	}
	out["vm.demote.armed_overlap"] = float64(f.demotions.ArmedOverlap)
	out["vm.demote.unbounded"] = float64(f.demotions.Unbounded)
	out["vm.demote.checked_overlap"] = float64(f.demotions.CheckedOverlap)
	out["vm.demote.timer_edge"] = float64(f.demotions.TimerEdge)
	out["vm.demote.would_trap"] = float64(f.demotions.WouldTrap)
	out["vm.decisions"] = float64(f.decisions)
	out["vm.same_pick_continues"] = float64(f.samePick)
	out["vm.ns_per_decision"] = median(tr.perPass(func(p *passResult) (float64, bool) {
		return p.secs * 1e9 / float64(p.decisions), p.decisions > 0
	}))
	for _, c := range []vmConfig{vanilla, prevention, preventionBase} {
		if m := f.modes[c.name]; m != nil {
			out["vm.ticks."+c.name] = float64(m.ticks)
		}
		out["minstr_per_s."+c.name] = un.rate(c.name, true, true)
	}

	k := f.kernel
	out["kernel.crossings"] = float64(k.KernelEntries())
	out["kernel.crossings.prevention_base"] = float64(f.baseCrossings)
	if k.Instructions > 0 {
		out["kernel.crossings_per_minstr"] = float64(k.KernelEntries()) / (float64(k.Instructions) / 1e6)
	}
	out["kernel.begin_kernel"] = float64(k.BeginKernel)
	out["kernel.end_kernel"] = float64(k.EndKernel)
	out["kernel.clear_kernel"] = float64(k.ClearKernel)
	out["kernel.traps"] = float64(k.Traps)
	out["kernel.spurious_traps"] = float64(k.SpuriousTraps)
	out["kernel.missed_ars"] = float64(k.MissedARs)
	out["kernel.epoch_waits"] = float64(k.EpochWaits)
	out["kernel.suspensions"] = float64(k.Suspensions)
	out["kernel.timeouts"] = float64(k.Timeouts)
	out["kernel.overhead_ms"] = median(tr.perPass(func(p *passResult) (float64, bool) { return p.overheadSecs * 1e3, len(p.pairRatio) > 0 }))
	out["kernel.paired_ratio"] = median(tr.perPass(func(p *passResult) (float64, bool) {
		var rs []float64
		for _, r := range p.pairRatio {
			rs = append(rs, r)
		}
		return geomean(rs), len(rs) > 0
	}))

	out["userlib.user_handled"] = float64(k.UserHandled)
	out["userlib.whitelist_skips"] = float64(k.WhitelistSkips)
	if ann := k.Begins + k.Ends + k.Clears; ann > 0 {
		out["userlib.absorb_pct"] = 100 * float64(k.UserHandled) / float64(ann)
	}
	out["hw.delta_arms"] = float64(f.deltaArms)
	out["hw.full_arms"] = float64(f.fullArms)

	out["explore.differential_ms"] = median(tr.perPass(func(p *passResult) (float64, bool) {
		return median(p.differentialMs), len(p.differentialMs) > 0
	}))
	out["explore.session_open_ms"] = med(func(fe frontEnd) float64 { return fe.sessionSecs * 1e3 })
	out["explore.us_per_schedule"] = median(tr.perPass(func(p *passResult) (float64, bool) {
		return 1e3 * median(p.runMs), len(p.differentialMs) > 0
	}))
	out["explore.restores"] = float64(f.restores)
	out["explore.vanilla_divergences"] = float64(f.vanillaDiv)
	out["explore.prevention_divergences"] = float64(f.preventionDiv)

	out["go.alloc_mb"] = median(tr.perPass(func(p *passResult) (float64, bool) { return p.allocMB, true }))
	out["go.gc_cycles"] = median(tr.perPass(func(p *passResult) (float64, bool) { return float64(p.gcCycles), true }))

	out["tick_overhead_pct.prevention_base"], _ = f.tickOverheadPct(preventionBase.name)
	p50, _, tail, _ := tr.latency()
	out["request_latency_p50_ticks"] = float64(p50)
	out["request_latency_tail_ticks"] = float64(tail)

	ue, te := un.endToEnd(), tr.endToEnd()
	for _, m := range endToEnd {
		d := 0.0
		if ue[m.name] != 0 {
			d = (te[m.name] - ue[m.name]) / ue[m.name] * 100
		}
		out["trace.delta_pct."+m.name] = d
	}
	return out
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSample is the Go heap's cumulative allocation and GC count.
func memSample() (allocMB float64, gc uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20), ms.NumGC
}
