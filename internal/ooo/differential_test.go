package ooo

import (
	"testing"

	"cisim/internal/isa"
	"cisim/internal/prog"
	"cisim/internal/progen"
	"cisim/internal/workloads"
)

// TestDifferentialRandomPrograms is the flagship correctness test: random
// always-terminating programs run through every machine and a spread of
// configurations, with the in-engine golden checks comparing every retired
// instruction (PC, value, address, branch direction) against the
// functional emulator, plus the rename and continuity invariants.
func TestDifferentialRandomPrograms(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		p := progen.Generate(seed, progen.Config{})
		configs := []Config{
			{Machine: Base, WindowSize: 32},
			{Machine: Base, WindowSize: 256},
			{Machine: CI, WindowSize: 32},
			{Machine: CI, WindowSize: 256},
			{Machine: CI, WindowSize: 128, SegmentSize: 4},
			{Machine: CI, WindowSize: 128, SegmentSize: 16},
			{Machine: CI, WindowSize: 128, Completion: Spec},
			{Machine: CI, WindowSize: 128, Completion: NonSpec},
			{Machine: CI, WindowSize: 128, Preempt: PreemptSimple},
			{Machine: CI, WindowSize: 128, Repredict: RepredictNone},
			{Machine: CI, WindowSize: 128, Reconv: Reconv{Return: true, Loop: true, Ltb: true}},
			{Machine: CI, WindowSize: 128, Reconv: Reconv{Assoc: true}},
			{Machine: CIInstant, WindowSize: 128},
			{Machine: CI, WindowSize: 64, BimodalPredictor: true},
		}
		for i, c := range configs {
			c.Check = true
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("seed %d config %d (%+v): golden check panic: %v", seed, i, c, r)
					}
				}()
				r, err := Run(p, c)
				if err != nil {
					t.Fatalf("seed %d config %d (%+v): %v", seed, i, c, err)
				}
				if r.Stats.Retired == 0 {
					t.Fatalf("seed %d config %d: nothing retired", seed, i)
				}
			}()
		}
	}
}

// TestDifferentialRefShadow cross-checks the data-oriented hot structures
// (dense rename map, event wheel, reconvergence bitsets, consumer lists,
// on-demand stability) against the retained pre-rewrite maps and window
// scans, in lockstep, on the real workloads: every machine model under
// every completion model, plus the two stability readers that are not
// completion models (the confidence hedge and the HFM oracle). Config.
// refCheck makes the machine maintain both representations at every
// mutation point and panic on any divergence, so a pass here means the
// rewrite is observationally identical to the reference semantics cycle
// by cycle, not merely end to end. The refCheck runs must
// also report exactly the stats of plain runs: the shadow may not perturb
// the simulation. The checked runs also enable Config.Check, whose
// window.check pass revalidates the SoA live cache every cycle: the
// flags array must byte-for-byte equal flagsOf of each live entry, so
// the struct-of-arrays mirror can never drift from the dyn fields it
// summarizes.
func TestDifferentialRefShadow(t *testing.T) {
	maxInstrs, iters := uint64(20_000), 100
	if testing.Short() {
		maxInstrs, iters = 4_000, 20
	}
	for _, w := range workloads.All() {
		p := w.Program(iters)
		pre, err := Prepare(p, maxInstrs)
		if err != nil {
			t.Fatalf("%s: prepare: %v", w.Name, err)
		}
		for _, machine := range []Machine{Base, CI, CIInstant} {
			for _, model := range refShadowModels {
				c := model.c
				c.Machine, c.WindowSize, c.SegmentSize, c.MaxInstrs = machine, 128, 8, maxInstrs
				name := w.Name + "/" + machine.String() + "/" + model.name
				plain, err := RunPrepared(p, c, pre)
				if err != nil {
					t.Fatalf("%s: plain run: %v", name, err)
				}
				c.refCheck = true
				c.Check = true
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s: shadow divergence: %v", name, r)
						}
					}()
					checked, err := RunPrepared(p, c, pre)
					if err != nil {
						t.Fatalf("%s: refCheck run: %v", name, err)
					}
					if checked.Stats != plain.Stats {
						t.Errorf("%s: refCheck perturbed stats:\n  plain   %+v\n  checked %+v",
							name, plain.Stats, checked.Stats)
					}
				}()
			}
		}
	}
}

// refShadowModels are the completion settings TestDifferentialRefShadow
// runs: each completion model, and the confidence hedge and the HFM
// oracle, which gate resolution on stability outside the models.
var refShadowModels = []struct {
	name string
	c    Config
}{
	{"spec-C", Config{Completion: SpecC}},
	{"spec", Config{Completion: Spec}},
	{"non-spec", Config{Completion: NonSpec}},
	{"spec-D", Config{Completion: SpecD}},
	{"spec+conf", Config{Completion: Spec, ConfidenceDelay: true}},
	{"spec-C+hfm", Config{Completion: SpecC, HideFalseMispredictions: true}},
}

// steadyLoopProgram is a predictable counted loop with no calls, loads, or
// stores: once the predictors warm up, the machine reaches an allocation-
// free steady state (no mispredictions, no recoveries, no RAS pushes, no
// cache fills).
func steadyLoopProgram(iters int32) *prog.Program {
	base := prog.CodeBase
	return &prog.Program{
		Entry:    base,
		CodeBase: base,
		Code: []isa.Inst{
			{Op: isa.ADDI, Rd: 1, Imm: iters},    // r1 = iters
			{Op: isa.ADDI, Rd: 2, Imm: 0},        // r2 = 0
			{Op: isa.ADD, Rd: 2, Rs1: 2, Rs2: 1}, // loop: r2 += r1
			{Op: isa.ADDI, Rd: 1, Rs1: 1, Imm: -1},
			{Op: isa.BNE, Rs1: 1, Rs2: 0, Imm: -2}, // -> loop
			{Op: isa.HALT},
		},
	}
}

// TestSteadyStateZeroAllocs pins the point of the data-oriented rewrite:
// the cycle loop allocates nothing in steady state. The slab arenas
// (dyns, segments, slots) refill in amortized batches, so the test tops
// them up past what the measured steps can consume; everything else — the
// dense rename map, the event wheel, recycled completion buckets, the
// reused fetch buffer — must be allocation-free per cycle.
func TestSteadyStateZeroAllocs(t *testing.T) {
	p := steadyLoopProgram(30_000)
	c := Config{Machine: Base, WindowSize: 64}
	c.defaults()
	pre, err := Prepare(p, c.MaxInstrs)
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(p, c, pre)
	for i := 0; i < 2_000; i++ {
		if err := m.step(); err != nil {
			t.Fatalf("warmup step: %v", err)
		}
		if m.done {
			t.Fatal("program finished during warmup; lengthen the loop")
		}
	}
	m.arena = make([]dyn, 1<<15)
	m.win.segArena = make([]segment, 1<<14)
	m.win.slotArena = make([]*dyn, 1<<14)
	avg := testing.AllocsPerRun(400, func() {
		if m.done {
			t.Fatal("program finished during measurement; lengthen the loop")
		}
		if err := m.step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state cycle loop allocates %.2f objects/cycle, want 0", avg)
	}
}

// TestDifferentialRetireCountsAgree verifies that every configuration
// retires exactly the same number of instructions for the same program
// (the architectural stream is configuration-independent).
func TestDifferentialRetireCountsAgree(t *testing.T) {
	for seed := int64(50); seed < 55; seed++ {
		p := progen.Generate(seed, progen.Config{Blocks: 8})
		var want uint64
		for i, c := range []Config{
			{Machine: Base, WindowSize: 64},
			{Machine: CI, WindowSize: 64},
			{Machine: CIInstant, WindowSize: 64},
			{Machine: CI, WindowSize: 64, SegmentSize: 16},
		} {
			r, err := Run(p, c)
			if err != nil {
				t.Fatalf("seed %d config %d: %v", seed, i, err)
			}
			if i == 0 {
				want = r.Stats.Retired
			} else if r.Stats.Retired != want {
				t.Errorf("seed %d config %d retired %d, want %d", seed, i, r.Stats.Retired, want)
			}
		}
	}
}
