package vm

import (
	"fmt"

	"kivati/internal/hw"
	"kivati/internal/isa"
)

// This file implements the tiered-execution fast path: basic-block
// superstep dispatch over the pre-decoded instruction stream.
//
// The paper's performance argument (§5) is that the non-AR common case —
// no watchpoint armed anywhere — must be nearly free. The legacy Run loop
// pays full per-instruction freight for that case: a scheduler visit, a
// timer comparison, an event-heap peek and a clock-advance computation per
// retired instruction. The superstep collapses all of it: when no kernel
// activity is due and no scheduling decision can arise, the machine
// computes the largest window [clock, bound) in which the legacy loop
// provably does nothing but retire straight-line instructions, executes
// the whole window in a tight lockstep loop, and charges cost in bulk.
//
// Armed watchpoints do not end the window. At every basic-block edge the
// dispatcher compares the block's static address footprint (compile-time
// table, evaluated against the thread's live SP/FP) with the core's armed
// registers: a provably disjoint block retires unchecked exactly as in the
// vanilla case, and an overlapping or unbounded block retires pre-checked,
// where each access is checked against the register file before
// committing. An access that would trap stops the window before its
// instruction, and step re-executes that instruction, recording the access
// and delivering the trap. Both tiers retire every instruction form through
// the one executor, execRun; they differ only in its access policy and in
// how much bookkeeping surrounds it. Everything observable — event
// delivery, timer interrupts, scheduling decisions, traps, rng consumption,
// per-thread instruction ticks — happens at exactly the clock values the
// legacy loop would have used, so execution is bit-identical (the
// differential gate in fastpath_test.go holds the interpreter to that).

// buildBlockLen precomputes, for every instruction start, how many
// instructions the fast path may retire beginning there without leaving
// straight-line code: 0 for pcs the fast path must not enter (SYS and HLT
// need the kernel; non-starts are decode faults), 1 for control flow
// (the block ends but the instruction itself is fast-executable), and
// 1 + blockLen[next] otherwise. starts is the list of instruction-start
// pcs in ascending order; the walk is in reverse so each entry is O(1).
// compile.Footprints runs the same reverse walk, so footprint entry pc
// covers (a superset of) the blockLen[pc] instructions dispatched from pc.
// The same walk fills execKind and noBail.
func (m *Machine) buildBlockLen(starts []uint32) {
	m.blockLen = make([]uint16, len(m.decoded))
	m.execKind = make([]uint8, len(m.decoded))
	m.noBail = make([]bool, len(m.decoded))
	const maxLen = ^uint16(0)
	for i := len(starts) - 1; i >= 0; i-- {
		pc := starts[i]
		in := m.decoded[pc]
		k := execKindOf(in.Op)
		m.execKind[pc] = k
		// Only a division (by zero) or an op the fast path refuses can stop
		// an unchecked run whose accesses are known to be in bounds.
		safe := k != ekNone && in.Op != isa.OpDIV && in.Op != isa.OpMOD
		switch {
		case in.Op.IsKernelBoundary():
			// The legacy path must execute it.
		case in.Op.IsControlFlow():
			m.blockLen[pc] = 1
			m.noBail[pc] = safe
		default:
			n := uint16(1)
			if next := pc + uint32(in.Len); int(next) < len(m.blockLen) {
				if bl := m.blockLen[next]; bl < maxLen {
					n += bl
				} else {
					n = maxLen
				}
				safe = safe && (m.blockLen[next] == 0 || m.noBail[next])
			}
			m.blockLen[pc] = n
			m.noBail[pc] = safe
		}
	}
}

// Dispatch kinds: one dense small integer per instruction form, precomputed
// at decode time, so execRun dispatches through a jump table instead of
// re-classifying the opcode's ranges on every retirement. execKindOf is the
// only classifier of instruction forms. ekNone marks the pcs execRun
// refuses: the kernel boundaries (SYS, HLT) and non-starts, which step
// executes or faults.
const (
	ekNone uint8 = iota
	ekNOP
	ekMOVI
	ekMOVR
	ekALU
	ekADDI
	ekLD
	ekST
	ekLDR
	ekSTR
	ekPUSH
	ekPOP
	ekPUSHM
	ekJMP
	ekJZ
	ekJNZ
	ekCALL
	ekCALLM
	ekRET
)

func execKindOf(op isa.Op) uint8 {
	switch {
	case op == isa.OpNOP:
		return ekNOP
	case op == isa.OpMOVQ || op == isa.OpMOVL:
		return ekMOVI
	case op == isa.OpMOVR:
		return ekMOVR
	case op >= isa.OpADD && op <= isa.OpCGE:
		return ekALU
	case op == isa.OpADDI:
		return ekADDI
	case op >= isa.OpLD && op < isa.OpLD+4:
		return ekLD
	case op >= isa.OpST && op < isa.OpST+4:
		return ekST
	case op >= isa.OpLDR && op < isa.OpLDR+4:
		return ekLDR
	case op >= isa.OpSTR && op < isa.OpSTR+4:
		return ekSTR
	case op == isa.OpPUSH:
		return ekPUSH
	case op == isa.OpPOP:
		return ekPOP
	case op >= isa.OpPUSHM && op < isa.OpPUSHM+4:
		return ekPUSHM
	case op == isa.OpJMP:
		return ekJMP
	case op == isa.OpJZ:
		return ekJZ
	case op == isa.OpJNZ:
		return ekJNZ
	case op == isa.OpCALL:
		return ekCALL
	case op == isa.OpCALLM:
		return ekCALLM
	case op == isa.OpRET:
		return ekRET
	}
	return ekNone
}

// trySuperstep retires one superstep window if the machine state admits
// one, otherwise returns leaving all state untouched so the legacy loop
// handles the current clock. Demotion conditions (any one suffices):
//
//   - an event is due at the current clock;
//   - a running core has a timer interrupt due;
//   - a free core exists while the run queue is non-empty (a scheduling
//     decision, and under the built-in scheduler an rng consultation, is
//     due at this clock).
//
// Armed watchpoints and epoch/pause waiters no longer demote the window.
// Watchpoint state is frozen inside a window — register files change only
// on kernel entries (syscalls, traps, timer interrupts), none of which
// occur mid-window — so block-edge footprint decisions (see blockChecked)
// hold for the whole block, and the per-tick epoch-waiter checks the
// legacy loop would run are provably no-ops: minCoreEpoch cannot change
// mid-window, and time-based wakes arrive via events, which bound the
// window.
//
// The window bound is the earliest clock at which the legacy loop would do
// anything besides retire an instruction: a running core's next timer
// interrupt, a busy core's wake-up (it reschedules or resumes then), a
// free core's next idle timer reset, the next event, and MaxTicks.
func (m *Machine) trySuperstep() {
	if len(m.events) > 0 && m.events[0].tick <= m.clock {
		m.demotions.TimerEdge++
		return
	}
	t0 := m.clock
	bound := ^uint64(0)
	active := m.fastCores[:0]
	for _, c := range m.cores {
		if c.BusyUntil > t0 {
			// Mid-cost (or mid-instruction) core: the legacy loop skips
			// it entirely until BusyUntil, where it reschedules, resumes
			// or has its timer checked — end the window there.
			if c.BusyUntil < bound {
				bound = c.BusyUntil
			}
			continue
		}
		if c.Cur != nil {
			if t0 >= c.NextTimer {
				m.demotions.TimerEdge++
				return
			}
			if c.NextTimer < bound {
				bound = c.NextTimer
			}
			// A block decision left open by a previous window is kept only
			// when its stamp proves it still valid (same thread, register
			// file unmutated); otherwise the first block re-decides and any
			// leftover merge budget is dropped.
			m.resumeOrResetFast(c)
			active = append(active, c)
			continue
		}
		// Free core. If anything is runnable it schedules right now.
		if len(m.runq) > 0 {
			return
		}
		nt := c.NextTimer
		if t0 >= nt {
			// The legacy loop would reset the idle core's timer at t0
			// (no interrupt is delivered with nothing running); mirror
			// it so the post-window timer phase is identical.
			nt = t0 + m.cfg.Costs.Quantum
			c.NextTimer = nt
		}
		if nt < bound {
			bound = nt
		}
	}
	m.fastCores = active
	if len(active) == 0 {
		return
	}
	if len(m.events) > 0 && m.events[0].tick < bound {
		bound = m.events[0].tick
	}
	if m.cfg.MaxTicks > 0 && m.cfg.MaxTicks < bound {
		bound = m.cfg.MaxTicks
	}
	if bound <= t0 {
		return
	}

	// Single-core machines take the continuation executor, which can chain
	// several windows (and their timer-interrupt decision points) without
	// returning to the Run loop.
	if len(active) == 1 && len(m.cores) == 1 {
		m.superstepSingle(active[0], t0, bound)
		return
	}

	// Lockstep rounds: in the legacy loop every aligned running core
	// retires one instruction per Costs.Instr ticks, in core order within
	// the tick. Round k therefore executes at clock t0 + k*Instr; n is the
	// number of whole rounds that fit strictly before the bound.
	instr := m.cfg.Costs.Instr
	n := (bound - t0 + instr - 1) / instr
	if n == 0 {
		return
	}
	if len(active) == 1 {
		if done := m.runFastSingle(active[0], n); done > 0 {
			m.chargeFast(active[0], t0, done)
			m.fastWindows++
		}
		return
	}
	m.lockstep(active, t0, n)
}

// chargeFast bills cnt fast-path instructions retired by core c from clock
// t0: identical to cnt legacy steps at Instr each.
func (m *Machine) chargeFast(c *Core, t0, cnt uint64) {
	c.BusyUntil = t0 + cnt*m.cfg.Costs.Instr
	m.Stats.Instructions += cnt
	m.fastInstrs += cnt
}

// lockstep retires up to n rounds of the multi-core lockstep from clock t0,
// one instruction per active core per round in core order. Whenever
// batchRounds proves the next L rounds cannot stop early and touch disjoint
// memory, it retires them one core at a time instead: the cores share only
// memory (register files are frozen inside a window), so disjoint runs that
// cannot bail commute with the round-by-round interleaving.
func (m *Machine) lockstep(active []*Core, t0, n uint64) {
	var rounds, batched uint64
	stopIdx := 0
	stopped := false
loop:
	for rounds < n {
		L, h := m.batchRounds(active, n-rounds)
		if L > 0 {
			for i, c := range active {
				if got := m.execRun(c, c.Cur, L, accUnchecked); got < L {
					m.unsoundBatch(active, i, t0, rounds, L, got)
					return
				}
				c.fastLeft -= uint16(L)
			}
			rounds += L
			batched += L
			continue
		}
		for end := rounds + h; rounds < end; rounds++ {
			for i, c := range active {
				if !m.stepFastBlock(c) {
					// Core i cannot proceed (kernel boundary, faulting
					// instruction, or a checked access that would trap):
					// in the legacy loop its round-k instruction commits
					// at t0+k*instr *after* the round-k instructions of
					// cores ordered before it, and *before* those of
					// cores ordered after it. So cores < i keep round k;
					// cores >= i replay it (and everything later) on the
					// legacy path.
					stopIdx, stopped = i, true
					break loop
				}
			}
		}
	}

	var total uint64
	for i, c := range active {
		cnt := rounds
		if stopped && i < stopIdx {
			cnt++
		}
		if cnt > 0 {
			m.chargeFast(c, t0, cnt)
			total += cnt
		}
	}
	if total > 0 {
		m.fastWindows++
		m.lockstepInstrs += total
		m.batchInstrs += batched * uint64(len(active))
	}
}

// batchRounds decides whether the lockstep's next rounds may retire one core
// at a time. Every active core must qualify: its block decision is
// unchecked, the rest of its block cannot bail (noBail), and its evaluated
// footprint is bounded and inside data memory — the three verdicts the
// decision folded into fpBatch — and that footprint is disjoint from every
// other active core's. It returns the batch length L
// — the fewest instructions left under any core's decision, capped at the
// left rounds — or, with L = 0, how many rounds to run one at a time before
// asking again (up to the next block edge of any core).
//
// A core at a block edge takes its decision here, before the round-k
// instructions of the cores ordered ahead of it. That is exact: those cores
// already qualified, so their round-k instructions provably commit, and a
// decision reads only the deciding core's own thread registers and
// register file, which no other core's instruction can touch. The
// decisions, and every Demotions counter, are the ones the round-by-round
// interleaving takes. Batching is off while DPOR segments are recorded, since
// segment footprints are folded in decision order.
func (m *Machine) batchRounds(active []*Core, left uint64) (L, h uint64) {
	if m.segRecording() {
		return 0, left
	}
	L = left
	for i, c := range active {
		if c.fastLeft == 0 && !m.decideBlock(c, c.Cur, true) {
			return 0, 1
		}
		if !c.fpBatch {
			return 0, nextEdge(active, left)
		}
		for _, o := range active[:i] {
			if c.fp.overlaps(&o.fp) {
				return 0, nextEdge(active, left)
			}
		}
		if l := uint64(c.fastLeft); l < L {
			L = l
		}
	}
	return L, 0
}

// nextEdge is the number of lockstep rounds, at most left, until some
// active core reaches a block edge (a core without a decision takes one in
// the first round).
func nextEdge(active []*Core, left uint64) uint64 {
	h := left
	for _, c := range active {
		l := uint64(c.fastLeft)
		if l == 0 {
			return 1
		}
		if l < h {
			h = l
		}
	}
	return h
}

// unsoundBatch ends the run when core i of a batch retired only got of its L
// instructions: batchRounds admitted a run that stopped early, so a block
// footprint was unsound and the cores ahead of it already ran past the
// stopping instruction. The committed work is charged, the fault names the
// stopping pc, and Run returns.
func (m *Machine) unsoundBatch(active []*Core, i int, t0, rounds, L, got uint64) {
	t := active[i].Cur
	m.Faults = append(m.Faults, fmt.Sprintf(
		"thread %d at pc %#x: batched lockstep retired %d of %d instructions (unsound block footprint)",
		t.ID, t.PC, got, L))
	var total uint64
	for j, c := range active {
		cnt := rounds
		switch {
		case j < i:
			cnt += L
		case j == i:
			cnt += got
		}
		if cnt > 0 {
			m.chargeFast(c, t0, cnt)
			total += cnt
		}
	}
	m.fastWindows++
	m.lockstepInstrs += total
	m.stopped = true
	m.reason = "fault"
}

// fastMergeRun is the checked-block merge budget: after a fresh block-edge
// decision lands on checked, this many subsequent block edges in the same
// window inherit the decision instead of re-scanning the register file.
// Overlapping-footprint runs (tight loops over a watched array, call chains
// into watched frames) thus pay one decision per fastMergeRun+1 blocks.
// Inheriting checked is always sound — checked mode pre-checks every access
// exactly — so the only cost of a stale inheritance is per-access checks on
// a block that a fresh decision would have retired unchecked.
const fastMergeRun = 4

// decideBlock takes core c's block-edge decision for the straight-line run
// at thread t's pc: how many instructions it covers (fastLeft), whether they
// retire checked, and the validity stamp. It returns false, changing
// nothing, when the fast path must not enter pc. A lockstep decision also
// evaluates the block footprint against the entry SP/FP and caches it with
// the batch verdict; any other decision clears the verdict.
func (m *Machine) decideBlock(c *Core, t *Thread, lockstep bool) bool {
	pc := t.PC
	if int(pc) >= len(m.blockLen) || m.blockLen[pc] == 0 {
		return false
	}
	c.fastLeft = m.blockLen[pc]
	c.fastDecTID = t.ID
	c.fastDecMuts = c.WP.Muts()
	f := &m.fps[pc]
	rec := m.segRecording()
	var fp *blockRanges
	if lockstep && !rec && !f.Unbounded {
		c.fp.eval(f, t)
		fp = &c.fp
	}
	if c.fastMerge > 0 {
		c.fastMerge--
		c.fastChecked = true
		m.demotions.CheckedOverlap++
	} else {
		c.fastChecked = m.blockChecked(c, t, f, fp)
		if c.fastChecked {
			c.fastMerge = fastMergeRun
		}
	}
	c.fpBatch = fp != nil && !c.fastChecked && m.noBail[pc] && fp.inMem(len(m.Mem))
	if rec {
		m.segBlockFootprint(t, f)
	}
	return true
}

// stepFastBlock retires one instruction of core c's thread in the
// multi-core lockstep, re-deciding checked/unchecked execution whenever the
// core crosses a basic-block edge (fastLeft counts the instructions still
// covered by the current decision; trySuperstep resets it at window
// admission unless the decision's stamp proves it still valid).
func (m *Machine) stepFastBlock(c *Core) bool {
	t := c.Cur
	if c.fastLeft == 0 && !m.decideBlock(c, t, true) {
		return false
	}
	if m.execRun(c, t, 1, c.fastPolicy()) == 0 {
		c.resetFast()
		return false
	}
	c.fastLeft--
	return true
}

// runFastSingle is the one-active-core window executor: it retires up to n
// instructions in blockLen-sized straight-line chunks, so both the "is
// this a kernel boundary" lookup and the checked/unchecked watchpoint
// decision are hoisted to block edges. The decision lives in the core's
// persistent fast fields (stamped for validity; see resumeOrResetFast), so
// a window that ends mid-block can hand its open decision to the next one.
// Returns the number of instructions retired.
func (m *Machine) runFastSingle(c *Core, n uint64) uint64 {
	t := c.Cur
	var done uint64
	for done < n {
		if c.fastLeft == 0 && !m.decideBlock(c, t, false) {
			return done
		}
		chunk := uint64(c.fastLeft)
		if chunk > n-done {
			chunk = n - done
		}
		if got := m.execRun(c, t, chunk, c.fastPolicy()); got < chunk {
			c.resetFast()
			return done + got
		}
		c.fastLeft -= uint16(chunk)
		done += chunk
	}
	return done
}

// superstepSingle is the single-core window executor with same-pick
// continuation: after retiring a window, it handles the event that ended it
// — a timer interrupt at the window's own edge, or a syscall/HLT the fast
// path cannot execute — inline, replicating the legacy Run-loop sequence
// instruction for instruction (see the step-by-step correspondences below),
// and, when the core is left running, opens the next window in place
// instead of returning to the Run loop. With short quanta this collapses
// the per-decision fixed cost (loop-top scans, admission recompute, clock
// advance) into one tight loop, and when the policy re-picks the same
// thread under an unchanged register file the open block decision survives
// the boundary too. Anything that does not match the plain shapes below —
// an event due inside the sequence, MaxTicks, a stop request, a thread that
// blocks or exits, a faulting or would-trap instruction — returns to the
// Run loop at a state the legacy loop itself would have reached, so the
// loop finishes the moment exactly as before.
func (m *Machine) superstepSingle(c *Core, t0, bound uint64) {
	instr := m.cfg.Costs.Instr
	costs := &m.cfg.Costs
	for {
		n := (bound - t0 + instr - 1) / instr
		if n == 0 {
			return
		}
		done := m.runFastSingle(c, n)
		if done > 0 {
			m.chargeFast(c, t0, done)
			m.fastWindows++
		}
		if done == n {
			// Window retired to its bound. Continue only when the bound was
			// this core's own timer: deliver the interrupt inline. The legacy
			// sequence at clock T (window end) and T+TimerInt, in order:
			// TimerEdge demotion (trySuperstep's refusal), timer re-arm,
			// TimerInterrupts++, canonical-state adoption, epoch-waiter
			// check, preemption, interrupt cost, the idle-core adoption scan,
			// the flag-gated waiter check, and the scheduling decision.
			// Quantum > TimerInt guarantees the new timer is not already due.
			T := t0 + n*instr
			if bound != c.NextTimer || costs.Quantum <= costs.TimerInt ||
				(len(m.events) > 0 && m.events[0].tick <= T+costs.TimerInt) ||
				(m.cfg.MaxTicks > 0 && T+costs.TimerInt >= m.cfg.MaxTicks) {
				return
			}
			m.demotions.TimerEdge++
			m.clock = T
			c.NextTimer = T + costs.Quantum
			m.Stats.TimerInterrupts++
			m.adoptCanon(c)
			m.checkEpochWaiters()
			m.preempt(c)
			c.BusyUntil = T + costs.TimerInt
			m.clock = T + costs.TimerInt
			if m.coresBehind {
				if c.WP.Epoch != m.K.Canon.Epoch {
					m.adoptCanon(c)
				}
				m.coresBehind = false
			}
			if m.epochWaiters {
				m.checkEpochWaiters()
			}
			m.schedule(c)
			if c.Cur == nil {
				return
			}
		} else {
			// The window stopped early. When the blocker is a kernel
			// boundary (SYS or HLT) execute it inline; a faulting or
			// would-trap instruction instead replays through the Run loop,
			// whose retry re-runs the block machinery (and its demotion
			// accounting) that this path must not short-circuit.
			pc := c.Cur.PC
			if int(pc) < len(m.blockLen) && m.blockLen[pc] != 0 {
				return
			}
			in, ok := m.DecodeAt(pc)
			if !ok || (in.Op != isa.OpSYS && in.Op != isa.OpHLT) {
				return
			}
			if done > 0 {
				// Legacy: the clock advances to the partial window's end T
				// (no event lies at or before it — the window bound — and
				// MaxTicks is beyond it), then the loop top runs the
				// adoption scan (a busy core cannot idle-adopt: the flag
				// just recomputes) and the waiter check before the core
				// loop executes the boundary instruction. With done == 0
				// the loop top already ran at this clock; nothing repeats.
				m.clock = t0 + done*instr
				if m.coresBehind {
					m.coresBehind = c.WP.Epoch != m.K.Canon.Epoch
				}
				if m.epochWaiters {
					m.checkEpochWaiters()
				}
			}
			m.step(c)
			if c.Cur == nil || m.K.Log.StopRequested() {
				return
			}
			// The thread returned to userspace; the legacy loop advances to
			// the syscall's completion and takes the loop top there.
			bu := c.BusyUntil
			if (len(m.events) > 0 && m.events[0].tick <= bu) ||
				(m.cfg.MaxTicks > 0 && bu >= m.cfg.MaxTicks) {
				return
			}
			m.clock = bu
			if m.coresBehind {
				m.coresBehind = c.WP.Epoch != m.K.Canon.Epoch
			}
			if m.epochWaiters {
				m.checkEpochWaiters()
			}
			if m.clock >= c.NextTimer {
				// The syscall consumed the rest of the quantum (with short
				// exploration quanta, the common case): the timer interrupt
				// is due at its completion. Same inline sequence as the
				// window-edge interrupt above, at the current clock.
				if costs.Quantum <= costs.TimerInt {
					return
				}
				m.demotions.TimerEdge++
				c.NextTimer = m.clock + costs.Quantum
				m.Stats.TimerInterrupts++
				m.adoptCanon(c)
				m.checkEpochWaiters()
				m.preempt(c)
				c.BusyUntil = m.clock + costs.TimerInt
				bu = c.BusyUntil
				if (len(m.events) > 0 && m.events[0].tick <= bu) ||
					(m.cfg.MaxTicks > 0 && bu >= m.cfg.MaxTicks) {
					return
				}
				m.clock = bu
				if m.coresBehind {
					if c.WP.Epoch != m.K.Canon.Epoch {
						m.adoptCanon(c)
					}
					m.coresBehind = false
				}
				if m.epochWaiters {
					m.checkEpochWaiters()
				}
				m.schedule(c)
				if c.Cur == nil {
					return
				}
			}
		}
		m.resumeOrResetFast(c)
		t0 = m.clock
		bound = c.NextTimer
		if len(m.events) > 0 && m.events[0].tick < bound {
			bound = m.events[0].tick
		}
		if m.cfg.MaxTicks > 0 && m.cfg.MaxTicks < bound {
			bound = m.cfg.MaxTicks
		}
		if bound <= t0 {
			return
		}
	}
}

// blockRanges is a block footprint evaluated against a thread's live SP/FP:
// up to three absolute address ranges — the absolute component, then the
// SP- and FP-relative ones — in r[:n]. inSpace is false when a
// register-relative interval leaves [0, 2^32) after evaluation (the block's
// accesses would wrap or fault); that interval is then left out of r.
type blockRanges struct {
	r       [3]hw.AddrRange
	n       int
	inSpace bool
}

// eval is the single evaluator of a bounded static footprint f against
// thread t's live registers, shared by the watchpoint decision, the DPOR
// segment recorder and the lockstep batch check. It overwrites b in place
// (the decision hot path evaluates straight into the core's cache).
func (b *blockRanges) eval(f *isa.Footprint, t *Thread) {
	b.n = 0
	b.inSpace = true
	if f.AbsHi > f.AbsLo {
		b.r[0] = hw.AddrRange{Lo: f.AbsLo, Hi: f.AbsHi}
		b.n = 1
	}
	b.addReg(t.Regs[isa.RegSP], f.SPLo, f.SPHi)
	b.addReg(t.Regs[isa.RegFP], f.FPLo, f.FPHi)
}

func (b *blockRanges) addReg(base, lo, hi int64) {
	if hi <= lo {
		return
	}
	lo64 := int64(uint32(base)) + lo
	hi64 := int64(uint32(base)) + hi
	if lo64 < 0 || hi64 > int64(^uint32(0)) {
		b.inSpace = false
		return
	}
	b.r[b.n] = hw.AddrRange{Lo: uint32(lo64), Hi: uint32(hi64)}
	b.n++
}

// inMem reports whether every access of the block lies inside data memory
// of the given size.
func (b *blockRanges) inMem(size int) bool {
	if !b.inSpace {
		return false
	}
	for _, r := range b.r[:b.n] {
		if int(r.Hi) > size {
			return false
		}
	}
	return true
}

// overlaps reports whether any range of b intersects any range of o.
func (b *blockRanges) overlaps(o *blockRanges) bool {
	for _, x := range b.r[:b.n] {
		for _, y := range o.r[:o.n] {
			if x.Lo < y.Hi && y.Lo < x.Hi {
				return true
			}
		}
	}
	return false
}

// blockChecked decides, at a basic-block edge, whether the straight-line
// run with footprint f must execute with per-access watchpoint checks on
// core c. False — the common case — means the block's static footprint is
// provably disjoint from every armed register that could trap thread t, so
// execRun may commit every access unchecked (Match would return -1 for
// all of them). The stack components of the footprint are offsets from the
// block's entry SP/FP, evaluated against the thread's live registers
// (fp, when the caller already evaluated it); an interval that escapes the
// 32-bit address space is answered conservatively.
func (m *Machine) blockChecked(c *Core, t *Thread, f *isa.Footprint, fp *blockRanges) bool {
	if c.WP.ArmedCount() == 0 {
		return false
	}
	// Thread-relevant armed summary, cached per (thread, register-file
	// mutation count): when every armed register is exempt for this thread
	// (LocalOf — optimization 3), nothing the block does can trap, whatever
	// its footprint. The cached window also prefilters the bounded case
	// below without rescanning the register file at every block edge.
	rel, rlo, rhi := m.relevantWindow(c, t.ID)
	if rel == 0 {
		return false
	}
	if f.Unbounded {
		// An access the analysis could not bound, and at least one armed
		// register is not exempt: checked.
		m.demotions.Unbounded++
		return true
	}
	if fp == nil {
		var ev blockRanges
		ev.eval(f, t)
		fp = &ev
	}
	// A register-relative interval that leaves [0, 2^32) after evaluation is
	// answered conservatively (the checked path sorts it out exactly).
	if !fp.inSpace {
		m.demotions.ArmedOverlap++
		return true
	}
	ranges := fp.r[:fp.n]
	// Window prefilter against the cached relevant window: a footprint
	// disjoint from it cannot hit any non-exempt register, so the common
	// disjoint case skips the per-register scan entirely.
	hit := false
	for _, r := range ranges {
		if r.Lo < rhi && rlo < r.Hi {
			hit = true
			break
		}
	}
	if !hit {
		return false
	}
	if c.WP.MayMatchRanges(t.ID, ranges) {
		m.demotions.ArmedOverlap++
		return true
	}
	return false
}

// execRun is the one implementation of the instruction forms: it retires up
// to n instructions of thread t on core c, admitting every memory access
// under pol (see accPolicy), and returns how many it retired. It stops
// before the first instruction it must not retire, leaving that
// instruction's registers, memory, PC and Depth untouched: an ekNone pc
// (SYS, HLT or undecodable bytes, which step executes), a division by zero,
// or an access pol refuses. Multi-access instructions (PUSHM, CALLM) admit
// all their accesses before either commits, so a refusal never leaves a
// partial commit. Under the fast tier's policies a stop is exact: step
// re-executes the instruction at the identical clock with identical state.
// Under accRecord (step, n = 1) a refused access has already faulted the
// thread or delivered the before-access trap.
func (m *Machine) execRun(c *Core, t *Thread, n uint64, pol accPolicy) uint64 {
	pc, last := t.PC, t.LastInstr
	r := &t.Regs
	var done uint64
run:
	for ; done < n; done++ {
		if int(pc) >= len(m.execKind) {
			break
		}
		k := m.execKind[pc]
		in := &m.decoded[pc]
		nextPC := pc + uint32(in.Len)

		switch k {
		case ekNone:
			break run
		case ekNOP:
		case ekMOVI:
			r[in.Rd] = in.Imm
		case ekMOVR:
			r[in.Rd] = r[in.Ra]
		case ekALU:
			v, ok := alu(in.Op, r[in.Ra], r[in.Rb])
			if !ok {
				break run // division by zero: step faults the thread
			}
			r[in.Rd] = v
		case ekADDI:
			r[in.Rd] = r[in.Ra] + in.Imm
		case ekLD:
			if !m.admit(c, t, pol, in.Addr, in.Sz, hw.Read) {
				break run
			}
			r[in.Rd] = signExtend(m.loadRaw(in.Addr, in.Sz), in.Sz)
		case ekST:
			if !m.admit(c, t, pol, in.Addr, in.Sz, hw.Write) {
				break run
			}
			m.storeRaw(in.Addr, in.Sz, uint64(r[in.Ra]))
		case ekLDR:
			addr := uint32(r[in.Ra] + in.Imm)
			if !m.admit(c, t, pol, addr, in.Sz, hw.Read) {
				break run
			}
			r[in.Rd] = signExtend(m.loadRaw(addr, in.Sz), in.Sz)
		case ekSTR:
			addr := uint32(r[in.Ra] + in.Imm)
			if !m.admit(c, t, pol, addr, in.Sz, hw.Write) {
				break run
			}
			m.storeRaw(addr, in.Sz, uint64(r[in.Rb]))
		case ekPUSH:
			sp := uint32(r[isa.RegSP]) - 8
			if !m.admit(c, t, pol, sp, 8, hw.Write) {
				break run
			}
			r[isa.RegSP] = int64(sp)
			m.storeRaw(sp, 8, uint64(r[in.Ra]))
		case ekPOP:
			sp := uint32(r[isa.RegSP])
			if !m.admit(c, t, pol, sp, 8, hw.Read) {
				break run
			}
			r[in.Rd] = int64(m.loadRaw(sp, 8))
			r[isa.RegSP] = int64(sp + 8)
		case ekPUSHM:
			// Memory-to-stack move: read the source, write the stack.
			sp := uint32(r[isa.RegSP]) - 8
			if !m.admit(c, t, pol, in.Addr, in.Sz, hw.Read) ||
				!m.admit(c, t, pol, sp, 8, hw.Write) {
				break run
			}
			v := signExtend(m.loadRaw(in.Addr, in.Sz), in.Sz)
			r[isa.RegSP] = int64(sp)
			m.storeRaw(sp, 8, uint64(v))
		case ekJMP:
			nextPC = in.Addr
		case ekJZ:
			if r[in.Ra] == 0 {
				nextPC = in.Addr
			}
		case ekJNZ:
			if r[in.Ra] != 0 {
				nextPC = in.Addr
			}
		case ekCALL:
			sp := uint32(r[isa.RegSP]) - 8
			if !m.admit(c, t, pol, sp, 8, hw.Write) {
				break run
			}
			r[isa.RegSP] = int64(sp)
			m.storeRaw(sp, 8, uint64(nextPC))
			nextPC = in.Addr
			t.Depth++
		case ekCALLM:
			// Indirect call: the target-PC read can hit a watchpoint — the
			// §3.3 call special case.
			sp := uint32(r[isa.RegSP]) - 8
			if !m.admit(c, t, pol, in.Addr, 8, hw.Read) ||
				!m.admit(c, t, pol, sp, 8, hw.Write) {
				break run
			}
			target := uint32(m.loadRaw(in.Addr, 8))
			r[isa.RegSP] = int64(sp)
			m.storeRaw(sp, 8, uint64(nextPC))
			nextPC = target
			t.Depth++
		case ekRET:
			sp := uint32(r[isa.RegSP])
			if !m.admit(c, t, pol, sp, 8, hw.Read) {
				break run
			}
			nextPC = uint32(m.loadRaw(sp, 8))
			r[isa.RegSP] = int64(sp + 8)
			if t.Depth > 0 {
				t.Depth--
			}
		}
		last = pc
		pc = nextPC
	}
	// One write-back, which must not undo a move made meanwhile: nothing the
	// loop calls may change the thread's PC or LastInstr. The only kernel
	// entry inside it, HandleTrapBefore under accRecord, suspends the thread
	// but leaves its PC on the aborted instruction, where pc still points;
	// an out-of-bounds fault ends the thread without touching either.
	t.PC, t.LastInstr = pc, last
	return done
}

// MemHash returns the FNV-1a hash of data memory, for differential
// comparison of final memory images across dispatch modes.
func (m *Machine) MemHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range m.Mem {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
