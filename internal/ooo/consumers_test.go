package ooo

import (
	"testing"
	"unsafe"

	"cisim/internal/bpred"
	"cisim/internal/isa"
)

// TestDynSize pins the packed dyn layout. The simulator allocates one dyn
// per fetched instruction and clears whole slabs of them between runs, so
// the consumer-list links and the stability epoch must fit in what was
// padding before they were added (280 bytes).
func TestDynSize(t *testing.T) {
	if got := unsafe.Sizeof(dyn{}); got > 280 {
		t.Errorf("dyn is %d bytes, want <= 280: order fields by alignment", got)
	}
}

// TestConsumerListsFollowRenames drives the three src writers by hand —
// dispatch rename, a restart's renameWith, and a CI-I redispatch walk —
// on a hand-built window, and checks whom wakeConsumers reaches after
// each: only the current producer wakes a consumer, the producer it was
// renamed away from does not, and a squashed consumer is never woken.
// Config.Check's list invariant and refCheck's window-scan comparison
// run at every step.
func TestConsumerListsFollowRenames(t *testing.T) {
	p := steadyLoopProgram(10)
	c := Config{Machine: CIInstant, WindowSize: 64, Check: true, refCheck: true}
	c.defaults()
	pre, err := Prepare(p, c.MaxInstrs)
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(p, c, pre)
	defer m.release()

	check := func(step string) {
		t.Helper()
		if err := m.checkConsumerLists(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	done := func(ds ...*dyn) {
		for _, d := range ds {
			d.st = stDone
			m.win.noteFlags(d)
		}
	}
	// wakes reports which of ds a completion of producer leaves waiting
	// to reissue; ds start done.
	wakes := func(producer *dyn, ds ...*dyn) []bool {
		done(ds...)
		m.wakeConsumers(producer)
		woken := make([]bool, len(ds))
		for i, d := range ds {
			woken[i] = d.st == stWaiting
		}
		return woken
	}
	setR1 := func() *dyn { return m.newDyn(p.CodeBase, isa.Inst{Op: isa.ADDI, Rd: 1, Imm: 5}) }
	dispatch := func(ds ...*dyn) {
		for _, d := range ds {
			if !m.win.appendTail(d) {
				t.Fatal("window full")
			}
			m.renameAtTail(d)
		}
	}

	p1 := setR1()
	cons := m.newDyn(p.CodeBase+4, isa.Inst{Op: isa.ADD, Rd: 2, Rs1: 1, Rs2: 1}) // reads r1 in both slots
	sq := m.newDyn(p.CodeBase+8, isa.Inst{Op: isa.ADD, Rd: 4, Rs1: 1})
	dispatch(p1, cons, sq)
	if cons.src != [2]*dyn{p1, p1} || sq.src[0] != p1 {
		t.Fatalf("dispatch rename: cons.src=%v sq.src[0]=%v, want p1", cons.src, sq.src[0])
	}
	check("dispatch")

	m.squashDyn(sq)
	check("squash")
	if w := wakes(p1, cons, sq); !w[0] || w[1] {
		t.Errorf("after dispatch, p1 woke cons=%v sq=%v; want cons only", w[0], w[1])
	}

	// A restart inserts a new r1 producer after p1 and renames the
	// consumer through renameWith.
	p2 := setR1()
	if m.win.insertAfter(p1, nil, p2) == nil {
		t.Fatal("insertAfter: out of segments")
	}
	var rm regMap
	rm[1] = p2
	m.renameWith(cons, &rm)
	if cons.src != [2]*dyn{p2, p2} {
		t.Fatalf("renameWith: cons.src=%v, want p2 in both slots", cons.src)
	}
	check("renameWith")
	if w := wakes(p1, cons, sq); w[0] || w[1] {
		t.Errorf("after renameWith, old producer p1 woke cons=%v sq=%v; want neither", w[0], w[1])
	}
	if w := wakes(p2, cons, sq); !w[0] || w[1] {
		t.Errorf("after renameWith, new producer p2 woke cons=%v sq=%v; want cons only", w[0], w[1])
	}

	// A second insertion, then a CI-I redispatch walk from the consumer
	// remaps it to the youngest older producer.
	p3 := setR1()
	if m.win.insertAfter(p2, nil, p3) == nil {
		t.Fatal("insertAfter: out of segments")
	}
	done(cons)
	m.redisp = &redispSeq{cur: cons, ras: bpred.NewRAS(), gold: -1}
	m.continueWalk()
	if m.redisp != nil {
		t.Fatal("CI-I walk did not finish in one call")
	}
	if cons.src != [2]*dyn{p3, p3} {
		t.Fatalf("redispatch walk: cons.src=%v, want p3 in both slots", cons.src)
	}
	if cons.st != stWaiting {
		t.Error("redispatch walk changed cons's producer but did not reissue it")
	}
	check("redispatch walk")
	if w := wakes(p2, cons, sq); w[0] || w[1] {
		t.Errorf("after the walk, old producer p2 woke cons=%v sq=%v; want neither", w[0], w[1])
	}
	if w := wakes(p3, cons, sq); !w[0] || w[1] {
		t.Errorf("after the walk, new producer p3 woke cons=%v sq=%v; want cons only", w[0], w[1])
	}

	// Once squashed, the consumer is never woken again.
	m.squashDyn(cons)
	check("squash consumer")
	if w := wakes(p3, cons); w[0] {
		t.Error("p3 woke its squashed consumer")
	}
}
