package corpusgen_test

import (
	"reflect"
	"testing"

	"kivati/internal/annotate"
	"kivati/internal/core"
	"kivati/internal/corpusgen"
	"kivati/internal/kernel"
	"kivati/internal/vm"
)

// FuzzCorpusGen is the generator's soundness fuzzer: for ANY (seed, index,
// arrays) input, the generated program must parse, typecheck, compile, and
// terminate under the serial scheduler within MaxTicks in both modes, with
// every witness variable at 0 — the ground-truth labeling contract the
// soak harness scores against. serialRun fails the run on build errors,
// non-"completed" exit reasons, and tick exhaustion alike.
func FuzzCorpusGen(f *testing.F) {
	f.Add(int64(1), 0, false)
	f.Add(int64(1), 4, true)
	f.Add(int64(-7), 2, true)
	f.Add(int64(1<<40), 13, false)
	f.Add(int64(0), 3, true)
	f.Fuzz(func(t *testing.T, seed int64, index int, arrays bool) {
		if index < 0 {
			index = -(index + 1)
		}
		index %= 1024
		opts := corpusgen.Options{Count: index + 1, Seed: seed, Arrays: arrays, BoundedArrays: arrays}
		p := corpusgen.One(opts, index)
		if p.Source == "" {
			t.Fatalf("empty source for seed=%d index=%d", seed, index)
		}
		van := serialRun(t, p, true)
		prev := serialRun(t, p, false)
		for _, w := range p.WitnessVars {
			if van[w] != 0 || prev[w] != 0 {
				t.Errorf("%s: witness %s nonzero in serial run (vanilla=%d prevention=%d)",
					p.Name, w, van[w], prev[w])
			}
		}
		for _, v := range p.SnapshotVars {
			if _, ok := van[v]; !ok {
				t.Errorf("%s: snapshot var %s missing from the serial snapshot", p.Name, v)
			}
		}
	})
}

// FuzzDispatchEquivalence runs a generated program under DispatchStep and
// DispatchAuto with the built-in seeded scheduler and a short quantum, on 1
// to 4 cores, vanilla or prevention-optimized, and requires the two runs to
// agree on everything observable: ticks, exit reason, kernel stats, output,
// faults, violations, the snapshot variables and the final memory hash.
func FuzzDispatchEquivalence(f *testing.F) {
	f.Add(int64(1), 0, false, 2, int64(1), false)
	f.Add(int64(1), 4, true, 1, int64(3), false)
	f.Add(int64(-7), 2, true, 3, int64(9), true)
	f.Add(int64(42), 9, false, 4, int64(5), false)
	f.Fuzz(func(t *testing.T, seed int64, index int, arrays bool, cores int, schedSeed int64, vanilla bool) {
		if index < 0 {
			index = -(index + 1)
		}
		index %= 1024
		if cores < 0 {
			cores = -(cores + 1)
		}
		cores = 1 + cores%4
		p := corpusgen.One(corpusgen.Options{Count: index + 1, Seed: seed, Arrays: arrays, BoundedArrays: arrays}, index)
		prog, err := core.BuildWithOptions(p.Source, annotate.Options{})
		if err != nil {
			t.Fatalf("%s: build: %v", p.Name, err)
		}
		costs := vm.DefaultCosts()
		costs.Quantum = 200
		run := func(d vm.DispatchMode) *vm.Result {
			res, err := core.Run(prog, core.RunConfig{
				Mode:           kernel.Prevention,
				Opt:            kernel.OptOptimized,
				Vanilla:        vanilla,
				NumWatchpoints: 4,
				Cores:          cores,
				Seed:           schedSeed,
				MaxTicks:       4_000_000,
				TimeoutTicks:   10_000,
				Costs:          costs,
				SnapshotVars:   p.SnapshotVars,
				Dispatch:       d,
				HashMemory:     true,
			})
			if err != nil {
				t.Fatalf("%s (dispatch %d): %v", p.Name, d, err)
			}
			return res
		}
		rs, ra := run(vm.DispatchStep), run(vm.DispatchAuto)
		if rs.FastInstructions != 0 {
			t.Errorf("%s: DispatchStep retired %d fast instructions", p.Name, rs.FastInstructions)
		}
		for _, d := range []struct {
			what       string
			step, auto interface{}
		}{
			{"ticks", rs.Ticks, ra.Ticks},
			{"reason", rs.Reason, ra.Reason},
			{"stats", rs.Stats, ra.Stats},
			{"output", rs.Output, ra.Output},
			{"faults", rs.Faults, ra.Faults},
			{"violations", rs.Violations, ra.Violations},
			{"snapshot", rs.Snapshot, ra.Snapshot},
			{"memory hash", rs.MemHash, ra.MemHash},
		} {
			if !reflect.DeepEqual(d.step, d.auto) {
				t.Errorf("%s (cores=%d sched=%d vanilla=%v): %s step=%v auto=%v",
					p.Name, cores, schedSeed, vanilla, d.what, d.step, d.auto)
			}
		}
	})
}
