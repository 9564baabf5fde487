package predictor

import "testing"

func TestMemDepLifecycle(t *testing.T) {
	m := NewMemDep(8)
	pc := uint64(0x4000)
	if m.ShouldWait(pc) {
		t.Error("cold table should not wait")
	}
	m.TrainViolation(pc)
	if !m.ShouldWait(pc) {
		t.Error("violation did not train the wait table")
	}
	// Decay eventually releases the entry.
	for i := 0; i < 3; i++ {
		if !m.ShouldWait(pc) {
			t.Fatalf("entry decayed after only %d steps", i)
		}
		m.Decay()
	}
	if m.ShouldWait(pc) {
		t.Error("entry should have fully decayed")
	}
}

func TestMemDepAliasing(t *testing.T) {
	m := NewMemDep(4) // 16 entries
	m.TrainViolation(0x1000)
	// Same index (stride 16 words): aliases share the entry, like a real
	// untagged wait table.
	if !m.ShouldWait(0x1000 + 16*4) {
		t.Error("aliased PC should share the wait entry")
	}
	if m.ShouldWait(0x1004) {
		t.Error("neighbouring PC must not wait")
	}
}

func TestMemDepClone(t *testing.T) {
	m := NewMemDep(8)
	m.TrainViolation(0x2000)
	c := new(MemDep)
	c.CopyFrom(m)
	if !c.ShouldWait(0x2000) {
		t.Error("copy lost training")
	}
	c.Decay()
	c.Decay()
	c.Decay()
	if m.ShouldWait(0x2000) == false {
		t.Error("decaying the copy affected the original")
	}
}
