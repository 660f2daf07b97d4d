package vm

import (
	"bytes"
	"reflect"
	"testing"

	"kivati/internal/compile"
	"kivati/internal/kernel"
)

// snapSrc is a two-worker racy counter: enough scheduler decision points
// and watchpoint churn to make a mid-run capture nontrivial.
const snapSrc = `
int counter;
int lk;
int done;
void worker(int id) {
    int i;
    i = 0;
    while (i < 20) {
        counter = counter + 1;
        i = i + 1;
    }
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void main() {
    spawn(worker, 1);
    spawn(worker, 2);
    while (done < 2) {
        yield();
    }
    print(counter);
}
`

// newSnapMachine builds a snapshot-capable prevention-mode machine with the
// given schedule policy and main started, but not yet run.
func newSnapMachine(t *testing.T, policy SchedulePolicy) *Machine {
	t.Helper()
	// DispatchStep: SetPolicy requires policy-independent fastOK.
	return newSnapMachineOn(t, snapSrc, 1, DispatchStep, policy)
}

// newSnapMachineOn is newSnapMachine for any source, core count and
// dispatch mode.
func newSnapMachineOn(t *testing.T, src string, cores int, d DispatchMode, policy SchedulePolicy) *Machine {
	t.Helper()
	bin := buildSrc(t, src, compileOptsAnnotated())
	k := kernel.New(kernel.Config{
		Mode:           kernel.Prevention,
		Opt:            kernel.OptBase,
		NumWatchpoints: 4,
		TimeoutTicks:   10000,
	}, nil, nil, nil)
	m, err := New(bin, k, Config{
		Cores:     cores,
		Seed:      1,
		MaxTicks:  5_000_000,
		Snapshots: true,
		Dispatch:  d,
		Policy:    policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start("main", 0); err != nil {
		t.Fatal(err)
	}
	return m
}

// headRunnable is a deterministic stateless policy: always run the head of
// the queue (a yielding thread re-enters at the back, so this round-robins
// rather than re-picking the yielder). Stateless matters for the
// cross-machine test — a restored machine with the same policy continues
// identically.
var headRunnable = PolicyFunc(func(p SchedPoint) int { return 0 })

// TestSnapshotRestoreMemHash is the byte-identity quick-check: capture,
// run the machine to completion (dirtying memory), restore, and require
// the memory image hash to match the capture-time hash exactly.
func TestSnapshotRestoreMemHash(t *testing.T) {
	m := newSnapMachine(t, headRunnable)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := m.MemHash()

	res := m.Run()
	if res.Reason != "completed" {
		t.Fatalf("reason = %q", res.Reason)
	}
	if m.MemHash() == before {
		t.Fatal("run did not change memory; the restore check is vacuous")
	}

	m.Restore(snap)
	if got := m.MemHash(); got != before {
		t.Fatalf("restored memory hash %#x, capture-time hash %#x", got, before)
	}
}

// TestSnapshotRerunIdentical captures at a mid-run decision point, lets the
// run finish, restores, and re-runs: the second run must be observably
// identical — same output, ticks, stop reason, and final memory image.
func TestSnapshotRerunIdentical(t *testing.T) {
	var snap *Snapshot
	m := newSnapMachine(t, nil)
	m.SetPolicy(PolicyFunc(func(p SchedPoint) int {
		if p.Seq == 3 && snap == nil {
			s, err := m.Snapshot()
			if err != nil {
				t.Errorf("mid-run snapshot: %v", err)
			}
			snap = s
		}
		return headRunnable(p)
	}))
	res1 := m.Run()
	if snap == nil {
		t.Fatal("run never reached decision 3; capture point not exercised")
	}
	hash1 := m.MemHash()

	m.Restore(snap)
	res2 := m.Run()
	if res1.Reason != res2.Reason || res1.Ticks != res2.Ticks {
		t.Errorf("(reason, ticks) first=(%q, %d) rerun=(%q, %d)",
			res1.Reason, res1.Ticks, res2.Reason, res2.Ticks)
	}
	if !reflect.DeepEqual(res1.Output, res2.Output) {
		t.Errorf("output differs: first=%v rerun=%v", res1.Output, res2.Output)
	}
	if !reflect.DeepEqual(res1.Stats, res2.Stats) {
		t.Errorf("kernel stats differ:\n first=%+v\n rerun=%+v", res1.Stats, res2.Stats)
	}
	if hash2 := m.MemHash(); hash2 != hash1 {
		t.Errorf("final memory image differs: first=%#x rerun=%#x", hash1, hash2)
	}
}

// TestFastPathSnapshotRerunIdentical is TestSnapshotRerunIdentical on two
// cores under DispatchFast, with workers whose stack-local loops run in
// batched lockstep. The batch verdict is derived state that no snapshot carries, so
// the rerun must match the first run in everything — including how many
// instructions it batched.
func TestFastPathSnapshotRerunIdentical(t *testing.T) {
	src := `
int total;
int lk;
int done;
void worker(int id) {
    int i;
    int s;
    i = 0;
    s = 0;
    while (i < 3000) {
        s = s + i * id;
        i = i + 1;
    }
    lock(lk);
    total = total + s;
    done = done + 1;
    unlock(lk);
}
void main() {
    spawn(worker, 1);
    spawn(worker, 2);
    while (done < 2) {
        yield();
    }
    print(total);
}
`
	var snap *Snapshot
	var lockstep0, batch0 uint64
	m := newSnapMachineOn(t, src, 2, DispatchFast, nil)
	m.SetPolicy(PolicyFunc(func(p SchedPoint) int {
		if p.Seq == 3 && snap == nil {
			s, err := m.Snapshot()
			if err != nil {
				t.Errorf("mid-run snapshot: %v", err)
			}
			snap = s
			lockstep0, batch0 = m.lockstepInstrs, m.batchInstrs
		}
		return headRunnable(p)
	}))
	res1 := m.Run()
	if snap == nil {
		t.Fatal("run never reached decision 3; capture point not exercised")
	}
	hash1 := m.MemHash()
	lockstep1, batch1 := m.lockstepInstrs, m.batchInstrs
	t.Logf("capture at lockstep/batch (%d, %d), end (%d, %d)", lockstep0, batch0, lockstep1, batch1)
	if batch1 == batch0 {
		t.Fatal("no batched lockstep after the capture point; the rerun check is vacuous")
	}

	m.Restore(snap)
	if m.lockstepInstrs != lockstep0 || m.batchInstrs != batch0 {
		t.Errorf("restored lockstep/batch counters (%d, %d), captured (%d, %d)",
			m.lockstepInstrs, m.batchInstrs, lockstep0, batch0)
	}
	res2 := m.Run()
	if res1.Reason != res2.Reason || res1.Ticks != res2.Ticks {
		t.Errorf("(reason, ticks) first=(%q, %d) rerun=(%q, %d)",
			res1.Reason, res1.Ticks, res2.Reason, res2.Ticks)
	}
	if !reflect.DeepEqual(res1.Output, res2.Output) {
		t.Errorf("output differs: first=%v rerun=%v", res1.Output, res2.Output)
	}
	if !reflect.DeepEqual(res1.Stats, res2.Stats) {
		t.Errorf("kernel stats differ:\n first=%+v\n rerun=%+v", res1.Stats, res2.Stats)
	}
	if res1.Demotions != res2.Demotions {
		t.Errorf("demotions differ: first=%+v rerun=%+v", res1.Demotions, res2.Demotions)
	}
	if hash2 := m.MemHash(); hash2 != hash1 {
		t.Errorf("final memory image differs: first=%#x rerun=%#x", hash1, hash2)
	}
	if m.lockstepInstrs != lockstep1 || m.batchInstrs != batch1 {
		t.Errorf("lockstep/batch instructions first=(%d, %d) rerun=(%d, %d)",
			lockstep1, batch1, m.lockstepInstrs, m.batchInstrs)
	}
}

// TestSnapshotCrossMachine restores a capture into a different machine
// built from the same binary and configuration: the continuation must be
// identical to the source machine's.
func TestSnapshotCrossMachine(t *testing.T) {
	var snap *Snapshot
	a := newSnapMachine(t, nil) // policy set below so the closure can see the machine
	a.SetPolicy(PolicyFunc(func(p SchedPoint) int {
		if p.Seq == 2 && snap == nil {
			s, err := a.Snapshot()
			if err != nil {
				t.Errorf("mid-run snapshot: %v", err)
			}
			snap = s
		}
		return headRunnable(p)
	}))
	resA := a.Run()
	if snap == nil {
		t.Fatal("run never reached decision 2")
	}

	b := newSnapMachine(t, headRunnable)
	b.Restore(snap)
	resB := b.Run()
	if resA.Reason != resB.Reason || resA.Ticks != resB.Ticks {
		t.Errorf("(reason, ticks) source=(%q, %d) foreign=(%q, %d)",
			resA.Reason, resA.Ticks, resB.Reason, resB.Ticks)
	}
	if !reflect.DeepEqual(resA.Output, resB.Output) {
		t.Errorf("output differs: source=%v foreign=%v", resA.Output, resB.Output)
	}
	if !reflect.DeepEqual(resA.Stats, resB.Stats) {
		t.Errorf("kernel stats differ:\n source=%+v\n foreign=%+v", resA.Stats, resB.Stats)
	}
	if a.MemHash() != b.MemHash() {
		t.Errorf("final memory image differs: source=%#x foreign=%#x", a.MemHash(), b.MemHash())
	}
}

// TestSnapshotRejectsPendingClosure pins the capture precondition: closure
// events cannot be serialized, so Snapshot must refuse while one is queued.
func TestSnapshotRejectsPendingClosure(t *testing.T) {
	m := newSnapMachine(t, headRunnable)
	m.After(5, func() {})
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("Snapshot succeeded with a pending closure event")
	}
}

// TestSnapshotRequiresConfig pins the opt-in: machines built without
// Config.Snapshots must refuse to capture.
func TestSnapshotRequiresConfig(t *testing.T) {
	bin := buildSrc(t, snapSrc, compileOptsAnnotated())
	k := kernel.New(kernel.Config{Mode: kernel.Prevention, Opt: kernel.OptBase, NumWatchpoints: 4}, nil, nil, nil)
	m, err := New(bin, k, Config{Cores: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("Snapshot succeeded without Config.Snapshots")
	}
}

// recycleSrc has an initialized global, and its run writes globals (one
// of them mirrored into the shadow region under shadow writes) and the
// stacks of two threads.
const recycleSrc = `
int base = 40;
int s;
int done;
void worker(int id) {
    int t;
    s = id + base;
    t = s;
    done = t;
}
void main() {
    spawn(worker, 1);
    while (done == 0) {
        yield();
    }
    print(done + 1);
}
`

// newRecycleMachine builds a snapshot-capable optimization-3 machine (the
// compiler mirrors first-local writes into the shadow region) with main
// started.
func newRecycleMachine(t *testing.T, bin *compile.Binary) *Machine {
	t.Helper()
	k := kernel.New(kernel.Config{
		Mode:           kernel.Prevention,
		Opt:            kernel.OptOptimized,
		NumWatchpoints: 4,
		TimeoutTicks:   10000,
		ShadowDelta:    compile.ShadowDelta,
	}, nil, nil, nil)
	m, err := New(bin, k, Config{Cores: 2, Seed: 1, MaxTicks: 5_000_000, Snapshots: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start("main", 0); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReleasedImageIsInvisible pins image recycling: Release leaves the
// image all-zero after a run that wrote globals, stacks and the shadow
// region, and a machine built on the released image is indistinguishable
// from one built on a freshly allocated image — same memory hash, same
// first-capture pages (including which share zeroPage), same run.
func TestReleasedImageIsInvisible(t *testing.T) {
	images.Lock()
	spare := images.free
	images.free = nil
	images.Unlock()
	t.Cleanup(func() {
		images.Lock()
		images.free = spare
		images.Unlock()
	})

	bin := buildSrc(t, recycleSrc, compile.Options{Annotate: true, ShadowWrites: true})
	fresh := newRecycleMachine(t, bin)
	freshSnap, err := fresh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	used := newRecycleMachine(t, bin)
	if _, err := used.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if res := used.Run(); res.Reason != "completed" || len(res.Output) != 1 || res.Output[0] != 42 {
		t.Fatalf("run: reason %q output %v", res.Reason, res.Output)
	}
	sAddr := bin.Globals["s"]
	if used.Load(sAddr, 8) == 0 || used.Load(sAddr+compile.ShadowDelta, 8) == 0 {
		t.Fatal("run did not write the global and its shadow slot; the check is vacuous")
	}
	if !bytes.ContainsFunc(used.Mem[compile.StackTop(1)-compile.StackSize:compile.StackTop(1)], func(r rune) bool { return r != 0 }) {
		t.Fatal("run did not write the worker's stack; the check is vacuous")
	}
	// Capture the final state, so written pages hold non-zero captures and
	// clean dirty bits, then dirty one page whose capture is zeroPage: both
	// ways a page can be non-zero at Release.
	if _, err := used.Snapshot(); err != nil {
		t.Fatal(err)
	}
	used.storeRaw(compile.MemSize-8, 8, ^uint64(0))
	img := used.Mem
	used.Release()
	used.Release()
	if used.Mem != nil {
		t.Fatal("Release left the machine its image")
	}
	if _, err := used.Snapshot(); err == nil {
		t.Fatal("Snapshot on a released machine succeeded")
	}
	for p := 0; p < numPages; p++ {
		if !bytes.Equal(img[p<<pageShift:(p+1)<<pageShift], zeroPage) {
			t.Fatalf("released image page %d is not zero", p)
		}
	}

	recycled := newRecycleMachine(t, bin)
	if &recycled.Mem[0] != &img[0] {
		t.Fatal("New did not take the released image; recycling not exercised")
	}
	if got, want := recycled.MemHash(), fresh.MemHash(); got != want {
		t.Fatalf("recycled image hash %#x, fresh %#x", got, want)
	}
	recycledSnap, err := recycled.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < numPages; p++ {
		r, f := recycledSnap.pages[p], freshSnap.pages[p]
		if !bytes.Equal(r, f) || samePage(r, zeroPage) != samePage(f, zeroPage) {
			t.Fatalf("first-capture page %d differs between recycled and fresh images", p)
		}
		if !bytes.Equal(f, fresh.Mem[p<<pageShift:(p+1)<<pageShift]) {
			t.Fatalf("first-capture page %d differs from the memory it captured", p)
		}
	}
	r1, r2 := fresh.Run(), recycled.Run()
	if r1.Ticks != r2.Ticks || !reflect.DeepEqual(r1.Output, r2.Output) || fresh.MemHash() != recycled.MemHash() {
		t.Fatalf("runs differ: fresh ticks %d output %v, recycled ticks %d output %v",
			r1.Ticks, r1.Output, r2.Ticks, r2.Output)
	}
}
