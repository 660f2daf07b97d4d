package main

import (
	"fmt"
	"slices"
	"time"

	"kivati/internal/annotate"
	"kivati/internal/compile"
	"kivati/internal/core"
	"kivati/internal/harness"
	"kivati/internal/kernel"
	"kivati/internal/minic"
	"kivati/internal/valrange"
	"kivati/internal/whitelist"
	"kivati/internal/workloads"
)

// vmConfig is one way of running a program. Its name is the mode suffix of
// the metrics it feeds.
type vmConfig struct {
	name    string
	opt     kernel.OptLevel
	vanilla bool
}

var (
	vanilla        = vmConfig{"vanilla", kernel.OptBase, true}
	prevention     = vmConfig{"prevention", kernel.OptOptimized, false}
	preventionBase = vmConfig{"prevention_base", kernel.OptBase, false}
)

// compileOptions is the binary variant core.Run picks for the config.
func (c vmConfig) compileOptions() compile.Options {
	if c.vanilla {
		return compile.Options{}
	}
	return compile.Options{Annotate: true, ShadowWrites: c.opt.UseUserLib()}
}

// vmBench runs programs to completion with core.Run, each program once
// under every config per pass: the paper-suite and crossing-heavy
// workloads.
type vmBench struct {
	specs   []*workloads.Spec
	configs []vmConfig
	seed    int64
	progs   []vmProgram
}

type vmProgram struct {
	spec *workloads.Spec
	prog *core.Program
	wl   *whitelist.Whitelist
}

func annotateOptions(spec *workloads.Spec) annotate.Options {
	var opts annotate.Options
	for _, s := range spec.Starts {
		opts.Roots = append(opts.Roots, s.Fn)
	}
	return opts
}

// variants are the distinct binaries a pass runs. The whitelist reads the
// plain annotated binary's sync variables, so that one is built too.
func (b *vmBench) variants() []compile.Options {
	vs := []compile.Options{{Annotate: true}}
	for _, c := range b.configs {
		if o := c.compileOptions(); !slices.Contains(vs, o) {
			vs = append(vs, o)
		}
	}
	return vs
}

// setup parses, annotates and compiles every binary a pass runs, and
// derives the sync-variable whitelist, exactly as the bench harness does.
func (b *vmBench) setup(tr *tracer, st *setupTimes) error {
	b.progs = b.progs[:0]
	for _, spec := range b.specs {
		k := tr.speed.factor()
		start := time.Now()
		m := tr.begin("core.build")
		p, err := core.BuildWithOptions(spec.Source, annotateOptions(spec))
		tr.end(m)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		for _, o := range b.variants() {
			m := tr.begin("core.binary")
			_, err := p.Binary(o)
			tr.end(m)
			if err != nil {
				return fmt.Errorf("%s: %w", spec.Name, err)
			}
		}
		wl, err := p.SyncVarWhitelist(spec.FlagVars...)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		st.add(spec.Name, time.Since(start).Seconds(), k)
		b.progs = append(b.progs, vmProgram{spec: spec, prog: p, wl: wl})
	}
	return nil
}

func (b *vmBench) breakdown(tr *tracer) (frontEnd, error) {
	var fe frontEnd
	for _, spec := range b.specs {
		if err := fe.add(tr, spec.Source, annotateOptions(spec), b.variants()); err != nil {
			return fe, fmt.Errorf("%s: %w", spec.Name, err)
		}
	}
	return fe, nil
}

func (b *vmBench) runConfig(p vmProgram, c vmConfig) core.RunConfig {
	cfg := core.RunConfig{
		Mode:           kernel.Prevention,
		Opt:            c.opt,
		Vanilla:        c.vanilla,
		NumWatchpoints: 4,
		Cores:          2,
		Seed:           b.seed,
		MaxTicks:       400_000_000,
		TimeoutTicks:   harness.TimeoutTicks,
		Starts:         p.spec.Starts,
	}
	if p.spec.Requests != nil {
		r := *p.spec.Requests
		cfg.Requests = &r
	}
	if c.opt.UseWhitelist() {
		cfg.Whitelist = p.wl
	}
	return cfg
}

// pass runs every program under every config. The configs of one program
// run back to back, and their order rotates from pass to pass so that no
// config always runs on a warmer or colder machine than another.
func (b *vmBench) pass(tr *tracer, n int, acc *passResult, chk *checker) {
	order := rotate(b.configs, n)
	for _, p := range b.progs {
		secs := map[string]float64{}
		for _, c := range order {
			k := tr.speed.factor()
			m := tr.begin("vm.run")
			res, err := core.Run(p.prog, b.runConfig(p, c))
			d := tr.end(m)
			key := p.spec.Name + "/" + c.name
			if err != nil {
				chk.record(key, fingerprint{}, err)
				continue
			}
			var problems []string
			if res.Reason != "completed" {
				problems = append(problems, "run ended with reason "+res.Reason)
			}
			if p.spec.Requests != nil && len(res.Latencies) < p.spec.Requests.Count {
				problems = append(problems, fmt.Sprintf("served %d of %d requests", len(res.Latencies), p.spec.Requests.Count))
			}
			chk.record(key, fingerprint{res.Stats.Instructions, res.Ticks, res.Stats.KernelEntries(), res.Decisions}, nil, problems...)
			secs[c.name] = d
			acc.addVM(p.spec, c, res, d, d*k)
		}
		if v, ok := secs[vanilla.name]; ok {
			if pv, ok := secs[prevention.name]; ok {
				acc.pairRatio[p.spec.Name] = pv / v
				acc.overheadSecs += pv - v
			}
		}
	}
}

func rotate[T any](xs []T, n int) []T {
	k := n % len(xs)
	return append(append([]T(nil), xs[k:]...), xs[:k]...)
}

// frontEnd is the per-layer split of one set-up, timed one layer call at a
// time: parse, annotate, compile of each binary variant, the value-range
// analysis of the annotated binary and, for exploration, session open.
type frontEnd struct {
	parseSecs, annotateSecs, compileSecs, valrangeSecs, sessionSecs float64
	ars                                                             int
}

// add runs the front end over one program source, compiling variants. The
// first variant is the one value-range analysis reads.
func (fe *frontEnd) add(tr *tracer, src string, opts annotate.Options, variants []compile.Options) error {
	m := tr.begin("minic.parse")
	ast, err := minic.Parse(src)
	fe.parseSecs += tr.end(m)
	if err != nil {
		return err
	}
	m = tr.begin("annotate.annotate")
	ap, err := annotate.AnnotateWithOptions(ast, opts)
	fe.annotateSecs += tr.end(m)
	if err != nil {
		return err
	}
	fe.ars += len(ap.ARs)
	var bins []*compile.Binary
	for _, o := range variants {
		m = tr.begin("compile.compile")
		bin, err := compile.Compile(ap, o)
		fe.compileSecs += tr.end(m)
		if err != nil {
			return err
		}
		bins = append(bins, bin)
	}
	bin := bins[0]
	m = tr.begin("valrange.analyze")
	_, err = valrange.Analyze(bin.Code, bin.FuncEntries, valrange.Options{
		StackLo: compile.StackBase,
		StackHi: compile.StackBase + compile.MaxThreads*compile.StackSize,
	})
	fe.valrangeSecs += tr.end(m)
	return err
}
