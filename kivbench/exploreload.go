package main

import (
	"fmt"

	"kivati/internal/bugs"
	"kivati/internal/compile"
	"kivati/internal/core"
	"kivati/internal/explore"
	"kivati/internal/kernel"
	"kivati/internal/vm"
)

// serialRefs is the number of serial reference runs every differential
// executes before exploring (two thread orders in each mode).
const serialRefs = 4

// exploreBench runs the differential of every corpus bug once per pass:
// the explore-random workload. A differential builds the bug's program,
// runs the serial references and explores the vanilla and then the
// prevention binary with the same options.
type exploreBench struct {
	opts     explore.Options
	subjects []*explore.Subject
}

func newExploreBench(opts explore.Options) (*exploreBench, error) {
	b := &exploreBench{opts: opts}
	for _, bug := range bugs.Corpus() {
		s, err := explore.BugSubject(bug)
		if err != nil {
			return nil, err
		}
		b.subjects = append(b.subjects, s)
	}
	return b, nil
}

// setup runs every subject's differential with a budget of one schedule
// per mode: the build, the sessions and the serial references that every
// differential repeats before it explores, through explore's own code.
func (b *exploreBench) setup(tr *tracer, st *setupTimes) error {
	opts := b.opts
	opts.Schedules = 1
	for _, s := range b.subjects {
		k := tr.speed.factor()
		m := tr.begin("explore.differential")
		_, err := explore.Differential(s, opts)
		st.add(s.Name, tr.end(m), k)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
	}
	return nil
}

// breakdown times the set-up's layers one call at a time. The sessions are
// opened with the configuration explore's session pool uses.
func (b *exploreBench) breakdown(tr *tracer) (frontEnd, error) {
	var fe frontEnd
	for _, s := range b.subjects {
		if err := fe.add(tr, s.Source, b.opts.Annotate, []compile.Options{{Annotate: true}, {}}); err != nil {
			return fe, fmt.Errorf("%s: %w", s.Name, err)
		}
		p, err := core.BuildWithOptions(s.Source, b.opts.Annotate)
		if err != nil {
			return fe, fmt.Errorf("%s: %w", s.Name, err)
		}
		for _, mode := range []explore.Mode{explore.Vanilla, explore.Prevention} {
			m := tr.begin("core.session_open")
			_, err := core.NewSession(p, core.RunConfig{
				Mode:           kernel.Prevention,
				Opt:            kernel.OptBase,
				Vanilla:        mode == explore.Vanilla,
				NumWatchpoints: 16,
				Cores:          b.opts.Cores,
				Seed:           b.opts.Seed,
				MaxTicks:       4_000_000,
				TimeoutTicks:   10_000,
				Costs:          vm.DefaultCosts(),
				SnapshotVars:   s.SnapshotVars,
				Dispatch:       vm.DispatchFast,
			})
			fe.sessionSecs += tr.end(m)
			if err != nil {
				return fe, fmt.Errorf("%s: %w", s.Name, err)
			}
		}
	}
	return fe, nil
}

// pass runs the differential of every subject.
func (b *exploreBench) pass(tr *tracer, n int, acc *passResult, chk *checker) {
	for _, s := range b.subjects {
		k := tr.speed.factor()
		m := tr.begin("explore.differential")
		d, err := explore.Differential(s, b.opts)
		secs := tr.end(m)
		if err != nil {
			chk.record(s.Name, fingerprint{}, err)
			continue
		}
		var problems []string
		var fp fingerprint
		for _, rep := range []*explore.Report{d.Vanilla, d.Prevention} {
			if want := chk.want.diverges(rep.Mode); want && rep.Divergences == 0 {
				problems = append(problems, string(rep.Mode)+": no schedule diverged")
			} else if !want && rep.Divergences > 0 {
				problems = append(problems, fmt.Sprintf("%s: %d of %d schedules diverged", rep.Mode, rep.Divergences, len(rep.Runs)))
			}
			fp[0] += uint64(len(rep.Runs))
			fp[1] = fp[1]<<16 | uint64(rep.Divergences)
			for _, r := range rep.Runs {
				fp[2] += r.Ticks
				fp[3] += uint64(r.Decisions)
			}
		}
		chk.record(s.Name, fp, nil, problems...)
		acc.addDifferential(s.Name, d, secs, secs*k)
	}
}
