package vm

import (
	"bytes"
	"fmt"
	"testing"

	"kivati/internal/compile"
	"kivati/internal/hw"
	"kivati/internal/isa"
	"kivati/internal/kernel"
)

// Fixtures of the per-opcode test: a data word with high bits set in every
// byte width (so loads sign-extend), a store target, and a function pointer.
const (
	opData  = compile.GlobalsBase
	opStore = opData + 8
	opFnPtr = opData + 16
	opMem   = compile.MemSize
)

// opState is what one retirement may change: registers, PC, call depth and
// the data and stack bytes the fixtures expose.
type opState struct {
	regs  [isa.NumRegs]int64
	pc    uint32
	depth int
	data  []byte
	stack []byte
}

func captureOp(m *Machine, t *Thread) opState {
	top := compile.StackTop(t.ID)
	return opState{
		regs:  t.Regs,
		pc:    t.PC,
		depth: t.Depth,
		data:  append([]byte(nil), m.Mem[opData:opData+24]...),
		stack: append([]byte(nil), m.Mem[top-32:top]...),
	}
}

func (s opState) equal(o opState) bool {
	return s.regs == o.regs && s.pc == o.pc && s.depth == o.depth &&
		bytes.Equal(s.data, o.data) && bytes.Equal(s.stack, o.stack)
}

func (s opState) String() string {
	return fmt.Sprintf("pc=%#x depth=%d regs=%v data=%x stack=%x", s.pc, s.depth, s.regs, s.data, s.stack)
}

// opMachine builds a one-core machine whose code is in followed by HLT and
// schedules its one thread at pc 0, with fixed registers and memory; set
// then adjusts the registers (and, through k, the watchpoints) per case.
func opMachine(t *testing.T, in isa.Instr, trapBefore bool, set func(k *kernel.Kernel, th *Thread)) (*Machine, *Core, *Thread) {
	t.Helper()
	enc, err := isa.EncodeInstr(in)
	if err != nil {
		t.Fatalf("EncodeInstr(%v): %v", in.Op, err)
	}
	code := append(enc, byte(isa.OpHLT))
	bt, err := isa.Preprocess(code, []uint32{0})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	bin := &compile.Binary{
		Code:        code,
		Funcs:       map[string]uint32{"main": 0},
		FuncEntries: []uint32{0},
		ExitStub:    uint32(len(enc)),
		Globals:     map[string]uint32{},
		InitMem:     map[uint32]int64{},
		Boundary:    bt,
		SyncVars:    map[string]bool{},
	}
	k := kernel.New(kernel.Config{
		Mode:           kernel.Prevention,
		Opt:            kernel.OptBase,
		NumWatchpoints: 4,
		TimeoutTicks:   10_000,
		TrapBefore:     trapBefore,
	}, nil, nil, nil)
	m, err := New(bin, k, Config{Cores: 1, Seed: 1})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	if _, err := m.Start("main", 0); err != nil {
		t.Fatal(err)
	}
	c := m.cores[0]
	m.schedule(c)
	th := c.Cur
	for i := range th.Regs[:isa.RegSP] {
		th.Regs[i] = int64(i*0x1111 + 7)
	}
	th.Regs[1] = -37
	th.Regs[2] = 5
	th.Regs[3] = 0
	th.Regs[4] = int64(opData)
	th.Depth = 1
	m.storeRaw(opData, 8, 0x80f1e2d3c4b5a697)
	m.storeRaw(opStore, 8, 0x0102030405060708)
	m.storeRaw(opFnPtr, 8, 0x99)
	if set != nil {
		set(k, th)
		m.adoptCanon(c)
	}
	return m, c, th
}

// armWatch arms canonical register 0 on [addr, addr+8) for type typ.
func armWatch(k *kernel.Kernel, addr uint32, typ hw.AccessType) {
	k.Canon.Set(0, hw.Watchpoint{Addr: addr, Size: 8, Types: typ, Armed: true, Owner: -1, LocalOf: -1})
	k.Canon.Epoch++
}

// TestDispatchEquivalenceOpcodes runs every instruction form once under
// each access policy — accUnchecked and accPrechecked through execRun,
// accRecord through step — and requires identical registers, memory, PC
// and call depth. It also pins the refusals: a division by zero and an
// out-of-bounds access leave the instruction uncommitted (step faults the
// thread naming the first failing address), a before-access trap on
// PUSHM's stack write commits nothing, and a pre-checked access that would
// trap bails with state untouched and one WouldTrap demotion.
func TestDispatchEquivalenceOpcodes(t *testing.T) {
	type opCase struct {
		name string
		in   isa.Instr
	}
	cases := []opCase{
		{"NOP", isa.Instr{Op: isa.OpNOP}},
		{"MOVQ", isa.Instr{Op: isa.OpMOVQ, Rd: 0, Imm: -1234567890123}},
		{"MOVL", isa.Instr{Op: isa.OpMOVL, Rd: 0, Imm: -5}},
		{"MOVR", isa.Instr{Op: isa.OpMOVR, Rd: 0, Ra: 1}},
		{"ADDI", isa.Instr{Op: isa.OpADDI, Rd: 0, Ra: 1, Imm: 100}},
		{"PUSH", isa.Instr{Op: isa.OpPUSH, Ra: 1}},
		{"POP", isa.Instr{Op: isa.OpPOP, Rd: 0}},
		{"JMP", isa.Instr{Op: isa.OpJMP, Addr: 0x77}},
		{"JZ/taken", isa.Instr{Op: isa.OpJZ, Ra: 3, Addr: 0x77}},
		{"JZ/not-taken", isa.Instr{Op: isa.OpJZ, Ra: 1, Addr: 0x77}},
		{"JNZ/taken", isa.Instr{Op: isa.OpJNZ, Ra: 1, Addr: 0x77}},
		{"JNZ/not-taken", isa.Instr{Op: isa.OpJNZ, Ra: 3, Addr: 0x77}},
		{"CALL", isa.Instr{Op: isa.OpCALL, Addr: 0x77}},
		{"CALLM", isa.Instr{Op: isa.OpCALLM, Addr: opFnPtr}},
		{"RET", isa.Instr{Op: isa.OpRET}},
	}
	for op := isa.OpADD; op <= isa.OpCGE; op++ {
		cases = append(cases, opCase{op.String(), isa.Instr{Op: op, Rd: 0, Ra: 1, Rb: 2}})
	}
	for w := isa.Op(0); w < 4; w++ {
		cases = append(cases,
			opCase{fmt.Sprintf("LD%d", 1<<w), isa.Instr{Op: isa.OpLD + w, Rd: 0, Addr: opData}},
			opCase{fmt.Sprintf("ST%d", 1<<w), isa.Instr{Op: isa.OpST + w, Ra: 1, Addr: opStore}},
			opCase{fmt.Sprintf("LDR%d", 1<<w), isa.Instr{Op: isa.OpLDR + w, Rd: 0, Ra: 4, Imm: 8}},
			opCase{fmt.Sprintf("STR%d", 1<<w), isa.Instr{Op: isa.OpSTR + w, Ra: 4, Rb: 1, Imm: 8}},
			opCase{fmt.Sprintf("PUSHM%d", 1<<w), isa.Instr{Op: isa.OpPUSHM + w, Addr: opData}},
		)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var states [3]opState
			for pol := accUnchecked; pol <= accRecord; pol++ {
				m, c, th := opMachine(t, tc.in, false, nil)
				before := captureOp(m, th)
				if pol == accRecord {
					m.step(c)
					if len(m.Faults) > 0 || m.Stats.Instructions != 1 {
						t.Fatalf("step: faults %v, %d instructions", m.Faults, m.Stats.Instructions)
					}
				} else if got := m.execRun(c, th, 1, pol); got != 1 {
					t.Fatalf("policy %d retired %d instructions, want 1", pol, got)
				}
				states[pol] = captureOp(m, th)
				if states[pol].equal(before) {
					t.Fatalf("policy %d: the instruction changed nothing", pol)
				}
			}
			for pol := accPrechecked; pol <= accRecord; pol++ {
				if !states[pol].equal(states[accUnchecked]) {
					t.Errorf("policy %d: %v\nunchecked: %v", pol, states[pol], states[accUnchecked])
				}
			}
		})
	}

	// Refusals: every policy stops before the instruction with its state
	// untouched; step additionally faults the thread with the given message.
	spOOB := func(k *kernel.Kernel, th *Thread) { th.Regs[isa.RegSP] = int64(opMem) + 8 }
	oob := fmt.Sprintf("memory access out of bounds: %#x", opMem)
	refusals := []struct {
		name string
		in   isa.Instr
		set  func(k *kernel.Kernel, th *Thread)
		msg  string
	}{
		{"DIV/zero", isa.Instr{Op: isa.OpDIV, Rd: 0, Ra: 1, Rb: 3}, nil, "division by zero"},
		{"MOD/zero", isa.Instr{Op: isa.OpMOD, Rd: 0, Ra: 1, Rb: 3}, nil, "division by zero"},
		{"LD/oob", isa.Instr{Op: isa.OpLD, Rd: 0, Addr: opMem}, nil, oob},
		{"LD8/oob-straddle", isa.Instr{Op: isa.OpLD + 3, Rd: 0, Addr: opMem - 4},
			nil, fmt.Sprintf("memory access out of bounds: %#x", opMem-4)},
		{"ST/oob", isa.Instr{Op: isa.OpST + 3, Ra: 1, Addr: opMem}, nil, oob},
		{"LDR/oob", isa.Instr{Op: isa.OpLDR + 2, Rd: 0, Ra: 5},
			func(k *kernel.Kernel, th *Thread) { th.Regs[5] = int64(opMem) }, oob},
		{"STR/oob", isa.Instr{Op: isa.OpSTR + 1, Ra: 5, Rb: 1},
			func(k *kernel.Kernel, th *Thread) { th.Regs[5] = int64(opMem) }, oob},
		{"PUSH/oob", isa.Instr{Op: isa.OpPUSH, Ra: 1}, spOOB, oob},
		{"POP/oob", isa.Instr{Op: isa.OpPOP, Rd: 0},
			func(k *kernel.Kernel, th *Thread) { th.Regs[isa.RegSP] = int64(opMem) }, oob},
		{"CALL/oob", isa.Instr{Op: isa.OpCALL, Addr: 0x77}, spOOB, oob},
		{"RET/oob", isa.Instr{Op: isa.OpRET},
			func(k *kernel.Kernel, th *Thread) { th.Regs[isa.RegSP] = int64(opMem) }, oob},
		// Both accesses out of bounds: the fault names the first, the read.
		{"PUSHM/oob-read", isa.Instr{Op: isa.OpPUSHM + 3, Addr: opMem + 16}, spOOB,
			fmt.Sprintf("memory access out of bounds: %#x", opMem+16)},
		{"PUSHM/oob-stack", isa.Instr{Op: isa.OpPUSHM + 3, Addr: opData}, spOOB, oob},
		{"CALLM/oob-read", isa.Instr{Op: isa.OpCALLM, Addr: opMem + 16}, spOOB,
			fmt.Sprintf("memory access out of bounds: %#x", opMem+16)},
		{"CALLM/oob-stack", isa.Instr{Op: isa.OpCALLM, Addr: opFnPtr}, spOOB, oob},
	}
	for _, tc := range refusals {
		t.Run(tc.name, func(t *testing.T) {
			for pol := accUnchecked; pol <= accRecord; pol++ {
				m, c, th := opMachine(t, tc.in, false, tc.set)
				before := captureOp(m, th)
				if pol == accRecord {
					m.step(c)
					want := []string{fmt.Sprintf("thread 0 at pc 0x0: %s", tc.msg)}
					if fmt.Sprint(m.Faults) != fmt.Sprint(want) {
						t.Errorf("step faults %q, want %q", m.Faults, want)
					}
				} else if got := m.execRun(c, th, 1, pol); got != 0 {
					t.Errorf("policy %d retired %d instructions, want 0", pol, got)
				}
				if after := captureOp(m, th); !after.equal(before) {
					t.Errorf("policy %d changed state:\n%v\nwas %v", pol, after, before)
				}
			}
		})
	}

	// A before-access trap on PUSHM's stack write aborts the instruction
	// after its read was admitted: nothing commits, the trap is charged, and
	// pre-checking the same instruction bails with one WouldTrap.
	t.Run("PUSHM/trap-before-stack", func(t *testing.T) {
		in := isa.Instr{Op: isa.OpPUSHM + 3, Addr: opData}
		armStack := func(k *kernel.Kernel, th *Thread) {
			armWatch(k, uint32(th.Regs[isa.RegSP])-8, hw.Write)
		}
		m, c, th := opMachine(t, in, true, armStack)
		before := captureOp(m, th)
		m.step(c)
		if after := captureOp(m, th); !after.equal(before) {
			t.Errorf("aborted PUSHM committed:\n%v\nwas %v", after, before)
		}
		if len(m.Faults) > 0 || m.Stats.Traps != 1 {
			t.Errorf("faults %v, traps %d; want no fault and one trap", m.Faults, m.Stats.Traps)
		}
		if want := m.clock + m.cfg.Costs.Instr + m.cfg.Costs.Trap; c.BusyUntil != want {
			t.Errorf("BusyUntil = %d, want %d (instruction + trap)", c.BusyUntil, want)
		}

		m, c, th = opMachine(t, in, true, armStack)
		before = captureOp(m, th)
		if got := m.execRun(c, th, 1, accPrechecked); got != 0 {
			t.Errorf("pre-checked PUSHM retired %d instructions, want 0", got)
		}
		if after := captureOp(m, th); !after.equal(before) {
			t.Errorf("pre-checked bail changed state:\n%v\nwas %v", after, before)
		}
		if m.demotions.WouldTrap != 1 {
			t.Errorf("WouldTrap = %d, want 1", m.demotions.WouldTrap)
		}
	})

	// A pre-checked load that would hit an armed register bails before it
	// commits and counts one WouldTrap.
	t.Run("LD/prechecked-bail", func(t *testing.T) {
		m, c, th := opMachine(t, isa.Instr{Op: isa.OpLD + 3, Rd: 0, Addr: opData}, false,
			func(k *kernel.Kernel, th *Thread) { armWatch(k, opData, hw.Read) })
		before := captureOp(m, th)
		if got := m.execRun(c, th, 1, accPrechecked); got != 0 {
			t.Errorf("retired %d instructions, want 0", got)
		}
		if after := captureOp(m, th); !after.equal(before) {
			t.Errorf("bail changed state:\n%v\nwas %v", after, before)
		}
		if m.demotions.WouldTrap != 1 {
			t.Errorf("WouldTrap = %d, want 1", m.demotions.WouldTrap)
		}
	})
}
