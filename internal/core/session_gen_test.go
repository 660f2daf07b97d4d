package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"kivati/internal/annotate"
	"kivati/internal/core"
	"kivati/internal/corpusgen"
	"kivati/internal/kernel"
	"kivati/internal/vm"
)

// capturePolicy replays a recorded decision trace and captures one
// copy-on-write snapshot inside Pick at absolute decision index at — the
// quiescent branch point the snapshot engine's framePolicy keys on. The
// decision at that index has not been consumed yet, so a resume from the
// snapshot replays the chosen tail starting at at.
type capturePolicy struct {
	t     *testing.T
	m     *vm.Machine
	inner *vm.Replayer
	at    uint64
	snap  *vm.Snapshot
}

func (p *capturePolicy) Pick(sp vm.SchedPoint) int {
	if sp.Seq == p.at && p.snap == nil {
		snap, err := p.m.Snapshot()
		if err != nil {
			p.t.Errorf("mid-run snapshot at decision %d: %v", sp.Seq, err)
		}
		p.snap = snap
	}
	return p.inner.Pick(sp)
}

// genSession builds a session for one generated Arrays program in the
// snapshot engine's configuration: prevention kernel, fast dispatch. The
// ring-buffer decoy's dynamic indices give its blocks an Unbounded static
// footprint, so every fast-path visit demotes to checked mode.
func genSession(t *testing.T, p *corpusgen.Program) *core.Session {
	t.Helper()
	prog, err := core.BuildWithOptions(p.Source, annotate.Options{})
	if err != nil {
		t.Fatalf("%s: build: %v", p.Name, err)
	}
	s, err := core.NewSession(prog, core.RunConfig{
		Mode:           kernel.Prevention,
		Opt:            kernel.OptBase,
		NumWatchpoints: 16,
		Cores:          1,
		Seed:           1,
		MaxTicks:       4_000_000,
		TimeoutTicks:   10_000,
		Costs:          vm.DefaultCosts(),
		SnapshotVars:   p.SnapshotVars,
		Dispatch:       vm.DispatchFast,
		HashMemory:     true,
	})
	if err != nil {
		t.Fatalf("%s: session: %v", p.Name, err)
	}
	return s
}

// TestSessionSnapshotRestoreGenerated pins vm.Snapshot/Restore against a
// generated program that hits the Unbounded footprint escape: a full
// recorded run must count Unbounded demotions, a mid-run branch-point
// snapshot plus a tail replay must reproduce the full run's final state
// exactly — observables, ticks, memory hash, and the demotion counters,
// which ride the snapshot like every other piece of machine state.
func TestSessionSnapshotRestoreGenerated(t *testing.T) {
	p := corpusgen.One(corpusgen.Options{Count: 8, Seed: 21, Arrays: true}, 0)
	s := genSession(t, p)
	const quantum, seed = 17, 7

	rng := rand.New(rand.NewSource(99))
	rec := vm.NewRecorder(vm.PolicyFunc(func(sp vm.SchedPoint) int {
		return rng.Intn(len(sp.Runnable))
	}))
	full, err := s.RunSchedule(rec, quantum, seed)
	if err != nil {
		t.Fatal(err)
	}
	if full.Reason != "completed" {
		t.Fatalf("full run: %s (ticks=%d)", full.Reason, full.Ticks)
	}
	if full.Demotions.Unbounded == 0 {
		t.Fatalf("full run saw no Unbounded demotions; the Arrays decoy should force the footprint escape (demotions=%+v)", full.Demotions)
	}
	chosen := rec.Chosen()
	if len(chosen) < 2 {
		t.Fatalf("only %d decisions recorded; need a mid-run branch point", len(chosen))
	}
	mid := len(chosen) / 2

	// Replay the same schedule, capturing a snapshot at the midpoint. The
	// restore of the initial snapshot must also have reset the demotion
	// counters: if they leaked across runs, this run would report 2x.
	cp := &capturePolicy{t: t, m: s.Machine(), inner: vm.NewReplayer(chosen), at: uint64(mid)}
	replay, err := s.RunSchedule(cp, quantum, seed)
	if err != nil {
		t.Fatal(err)
	}
	if cp.inner.Mismatches() != 0 {
		t.Fatalf("replay run: %d decision mismatches", cp.inner.Mismatches())
	}
	if cp.snap == nil {
		t.Fatal("capture policy never reached the midpoint decision")
	}
	if replay.Demotions != full.Demotions {
		t.Errorf("replay demotions = %+v, want %+v (initial-snapshot restore must reset counters)",
			replay.Demotions, full.Demotions)
	}
	if !reflect.DeepEqual(replay.Snapshot, full.Snapshot) || replay.Ticks != full.Ticks || replay.MemHash != full.MemHash {
		t.Errorf("replay run diverged from recorded run: snapshot=%v ticks=%d hash=%#x, want %v/%d/%#x",
			replay.Snapshot, replay.Ticks, replay.MemHash, full.Snapshot, full.Ticks, full.MemHash)
	}

	// Resume from the branch point with only the decision tail: the
	// snapshot carries clock, RNG, quantum and demotion counters, so the
	// resumed run must land on the identical final state.
	tail := vm.NewReplayer(chosen[mid:])
	res, err := s.RunFrom(cp.snap, tail)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != "completed" {
		t.Fatalf("resumed run: %s (ticks=%d)", res.Reason, res.Ticks)
	}
	if tail.Mismatches() != 0 || tail.Consumed() != len(chosen)-mid {
		t.Errorf("resumed run consumed %d/%d tail decisions with %d mismatches",
			tail.Consumed(), len(chosen)-mid, tail.Mismatches())
	}
	if !reflect.DeepEqual(res.Snapshot, full.Snapshot) {
		t.Errorf("resumed snapshot = %v, want %v", res.Snapshot, full.Snapshot)
	}
	if res.Ticks != full.Ticks {
		t.Errorf("resumed ticks = %d, want %d", res.Ticks, full.Ticks)
	}
	if res.MemHash != full.MemHash {
		t.Errorf("resumed memory hash = %#x, want %#x", res.MemHash, full.MemHash)
	}
	if res.Demotions != full.Demotions {
		t.Errorf("resumed demotions = %+v, want %+v (snapshot/restore must carry the counters)",
			res.Demotions, full.Demotions)
	}
}

// TestSessionSnapshotPortableAcrossSessions: a branch-point snapshot taken
// in one session resumes in a fresh session of the same program and
// configuration (the portability contract vm.Snapshot documents), again
// reproducing the recorded final state.
func TestSessionSnapshotPortableAcrossSessions(t *testing.T) {
	p := corpusgen.One(corpusgen.Options{Count: 8, Seed: 33, Arrays: true}, 2)
	s := genSession(t, p)
	const quantum, seed = 23, 5

	rng := rand.New(rand.NewSource(4))
	rec := vm.NewRecorder(vm.PolicyFunc(func(sp vm.SchedPoint) int {
		return rng.Intn(len(sp.Runnable))
	}))
	full, err := s.RunSchedule(rec, quantum, seed)
	if err != nil {
		t.Fatal(err)
	}
	if full.Reason != "completed" {
		t.Fatalf("full run: %s", full.Reason)
	}
	chosen := rec.Chosen()
	if len(chosen) < 2 {
		t.Fatalf("only %d decisions recorded", len(chosen))
	}
	mid := len(chosen) / 2
	cp := &capturePolicy{t: t, m: s.Machine(), inner: vm.NewReplayer(chosen), at: uint64(mid)}
	if _, err := s.RunSchedule(cp, quantum, seed); err != nil {
		t.Fatal(err)
	}
	if cp.snap == nil {
		t.Fatal("capture policy never reached the midpoint decision")
	}

	other := genSession(t, p)
	res, err := other.RunFrom(cp.snap, vm.NewReplayer(chosen[mid:]))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Snapshot, full.Snapshot) || res.Ticks != full.Ticks ||
		res.MemHash != full.MemHash || res.Demotions != full.Demotions {
		t.Errorf("cross-session resume diverged: snapshot=%v ticks=%d hash=%#x demotions=%+v, want %v/%d/%#x/%+v",
			res.Snapshot, res.Ticks, res.MemHash, res.Demotions,
			full.Snapshot, full.Ticks, full.MemHash, full.Demotions)
	}
}

// TestSessionClose pins the session lifecycle: Close is idempotent, a
// closed session refuses to run or capture, and a snapshot taken before
// Close stays valid — resumed in a new session, which reuses the closed
// session's memory image, it reproduces the recorded final state.
func TestSessionClose(t *testing.T) {
	p := corpusgen.One(corpusgen.Options{Count: 8, Seed: 21, Arrays: true}, 1)
	s := genSession(t, p)
	const quantum, seed = 19, 3

	rng := rand.New(rand.NewSource(8))
	rec := vm.NewRecorder(vm.PolicyFunc(func(sp vm.SchedPoint) int {
		return rng.Intn(len(sp.Runnable))
	}))
	full, err := s.RunSchedule(rec, quantum, seed)
	if err != nil {
		t.Fatal(err)
	}
	chosen := rec.Chosen()
	if len(chosen) < 2 {
		t.Fatalf("only %d decisions recorded", len(chosen))
	}
	mid := len(chosen) / 2
	cp := &capturePolicy{t: t, m: s.Machine(), inner: vm.NewReplayer(chosen), at: uint64(mid)}
	if _, err := s.RunSchedule(cp, quantum, seed); err != nil {
		t.Fatal(err)
	}
	if cp.snap == nil {
		t.Fatal("capture policy never reached the midpoint decision")
	}

	s.Close()
	s.Close()
	if _, err := s.RunSchedule(vm.NewReplayer(chosen), quantum, seed); err == nil {
		t.Error("RunSchedule on a closed session succeeded")
	}
	if _, err := s.RunFrom(cp.snap, vm.NewReplayer(chosen[mid:])); err == nil {
		t.Error("RunFrom on a closed session succeeded")
	}
	if _, err := s.Machine().Snapshot(); err == nil {
		t.Error("Snapshot on a closed session's machine succeeded")
	}

	other := genSession(t, p)
	defer other.Close()
	res, err := other.RunFrom(cp.snap, vm.NewReplayer(chosen[mid:]))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Snapshot, full.Snapshot) || res.Ticks != full.Ticks || res.MemHash != full.MemHash {
		t.Errorf("resume after Close diverged: snapshot=%v ticks=%d hash=%#x, want %v/%d/%#x",
			res.Snapshot, res.Ticks, res.MemHash, full.Snapshot, full.Ticks, full.MemHash)
	}
}
