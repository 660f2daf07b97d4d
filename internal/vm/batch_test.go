package vm

import (
	"fmt"
	"strings"
	"testing"

	"kivati/internal/compile"
	"kivati/internal/kernel"
)

// lockstepOpts runs two workers started directly on a two-core machine with
// no annotation, so the cores share nothing but what the source shares.
func lockstepOpts(fn string) runOpts {
	o := defaultRunOpts()
	o.compile = compile.Options{}
	o.annotate = false
	o.starts = []startSpec{{fn: fn, arg: 0}, {fn: fn, arg: 1}}
	return o
}

// Workers looping over their own stacks and over adjacent (disjoint)
// globals: nearly every lockstep round qualifies for batching.
func TestFastPathLockstepBatched(t *testing.T) {
	src := `
int a;
int b;
void worker(int id) {
    int i;
    i = 0;
    while (i < 20000) {
        if (id == 0) {
            a = a + i;
        } else {
            b = b + i;
        }
        i = i + 1;
    }
}`
	o := lockstepOpts("worker")
	assertDispatchEqual(t, "disjoint-workers", src, o)
	m, res := runDispatch(t, src, o, DispatchAuto)
	if res.Reason != "completed" || len(res.Faults) != 0 {
		t.Fatalf("reason %q, faults %v", res.Reason, res.Faults)
	}
	if m.lockstepInstrs == 0 {
		t.Fatal("no lockstep instructions: the workers never ran side by side")
	}
	frac := float64(m.batchInstrs) / float64(m.lockstepInstrs)
	if frac < 0.9 {
		t.Errorf("batched %d of %d lockstep instructions (%.1f%%), want >= 90%%",
			m.batchInstrs, m.lockstepInstrs, 100*frac)
	}
}

// Workers whose every block touches one shared global: no two footprints
// are ever disjoint, so nothing may batch. A quantum longer than the run
// keeps every decision at a block entry; a preemption's legacy step would
// otherwise leave a thread mid-block, where the rest of the block (a compare
// and a branch) touches no memory and may legitimately batch.
func TestFastPathLockstepSharedNoBatch(t *testing.T) {
	src := `
int shared;
void worker(int id) {
    while (shared >= 0) {
        shared = shared + 1;
    }
}`
	o := lockstepOpts("worker")
	o.mcfg.Costs = DefaultCosts()
	o.mcfg.Costs.Quantum = 1_000_000
	o.mcfg.MaxTicks = 200_000
	assertDispatchEqual(t, "shared-workers", src, o)
	m, res := runDispatch(t, src, o, DispatchAuto)
	if res.Reason != "max-ticks" {
		t.Fatalf("reason %q, want max-ticks", res.Reason)
	}
	if m.lockstepInstrs == 0 {
		t.Fatal("no lockstep instructions: the workers never ran side by side")
	}
	if m.batchInstrs != 0 {
		t.Errorf("batched %d of %d lockstep instructions on overlapping footprints, want 0",
			m.batchInstrs, m.lockstepInstrs)
	}
}

// A footprint that claims an out-of-memory store is in bounds lets a batch
// admit a run that stops early. The machine must end the run with a fault
// naming the stopping pc instead of diverging silently.
func TestFastPathUnsoundFootprintFaults(t *testing.T) {
	src := `
int arr[4];
void spin(int id) {
    int i;
    i = 0;
    while (i < 5000) {
        i = i + 1;
    }
}
void bad(int id) {
    int i;
    i = 0;
    while (i < 200) {
        i = i + 1;
    }
    arr[2000000] = 1;
}`
	o := defaultRunOpts()
	o.compile = compile.Options{}
	bin := buildSrc(t, src, o.compile)
	k := kernel.New(o.kcfg, nil, nil, nil)
	m, err := New(bin, k, o.mcfg)
	if err != nil {
		t.Fatal(err)
	}
	// The block that ends bad's loop holds the out-of-memory store, so its
	// evaluated footprint fails inMem. Its entry is the lowest pc whose
	// footprint reaches past memory; claim a small in-bounds global range
	// for that one entry instead.
	m.fps = append(m.fps[:0:0], m.fps...)
	entry := -1
	for pc := range m.fps {
		if m.blockLen[pc] > 0 && !m.fps[pc].Unbounded && int(m.fps[pc].AbsHi) > len(m.Mem) {
			entry = pc
			break
		}
	}
	if entry < 0 {
		t.Fatal("no block footprint reaches past memory")
	}
	m.fps[entry].AbsLo = compile.GlobalsBase
	m.fps[entry].AbsHi = compile.GlobalsBase + 8
	stPC := -1
	for pc := entry; pc < len(m.execKind); pc++ {
		if k := m.execKind[pc]; k == ekST || k == ekSTR {
			stPC = pc
			break
		}
	}
	if stPC < 0 {
		t.Fatal("no store after the corrupted block entry")
	}
	if _, err := m.Start("spin", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start("bad", 1); err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Reason != "fault" {
		t.Fatalf("reason %q, want fault (faults %v)", res.Reason, res.Faults)
	}
	if len(res.Faults) != 1 {
		t.Fatalf("faults %v, want exactly one", res.Faults)
	}
	if want := fmt.Sprintf("pc %#x:", stPC); !strings.Contains(res.Faults[0], want) ||
		!strings.Contains(res.Faults[0], "unsound block footprint") {
		t.Errorf("fault %q, want it to name %q and the unsound footprint", res.Faults[0], want)
	}
}

// Batching must not move any block-edge decision: a later core's decision
// taken ahead of the earlier cores' round is exact only while those rounds
// provably commit. The expected counters were recorded from the
// round-by-round lockstep (no batching) on this program, whose atomic
// regions keep watchpoints armed so decisions land on checked, unbounded
// and would-trap paths as well as unchecked ones.
func TestFastPathBatchDecisionCounters(t *testing.T) {
	src := `
int shared;
int lk;
int done;
int arr[64];
void worker(int n) {
    int i;
    int s;
    i = 0;
    s = 0;
    while (i < n) {
        s = s + arr[i % 64] + i;
        shared = shared + 1;
        i = i + 1;
    }
    lock(lk);
    done = done + 1;
    unlock(lk);
}
void main() {
    spawn(worker, 300);
    spawn(worker, 300);
    worker(300);
    while (done < 3) {
        yield();
    }
    print(shared);
}`
	want := []struct {
		cores     int
		seed      int64
		dem       Demotions
		samePick  uint64
		decisions uint64
	}{
		{2, 1, Demotions{3640, 0, 0, 1295, 3585}, 182, 3307},
		{2, 2, Demotions{3643, 0, 1, 1264, 3582}, 172, 3239},
		{2, 3, Demotions{3638, 0, 1, 1287, 3589}, 128, 3387},
		{3, 1, Demotions{3413, 0, 1, 792, 2764}, 2244, 2258},
		{3, 2, Demotions{3419, 0, 1, 766, 2731}, 2334, 2258},
		{3, 3, Demotions{3416, 0, 0, 791, 2779}, 2243, 2252},
		{4, 1, Demotions{3614, 0, 1, 1905, 3572}, 720, 1034},
		{4, 2, Demotions{3622, 0, 1, 1887, 3580}, 708, 1000},
		{4, 3, Demotions{3608, 0, 0, 1859, 3563}, 738, 1007},
	}
	for _, w := range want {
		o := defaultRunOpts()
		o.mcfg.Cores = w.cores
		o.mcfg.Seed = w.seed
		_, res := runDispatch(t, src, o, DispatchAuto)
		if res.Demotions != w.dem || res.SamePickContinues != w.samePick || res.Decisions != w.decisions {
			t.Errorf("cores=%d seed=%d: demotions %+v same-pick %d decisions %d, want %+v %d %d",
				w.cores, w.seed, res.Demotions, res.SamePickContinues, res.Decisions,
				w.dem, w.samePick, w.decisions)
		}
	}
}
