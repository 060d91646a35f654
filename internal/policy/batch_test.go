package policy

import "testing"

// mustTable compiles a named policy or fails the test.
func mustTable(t *testing.T, name string, assoc int) *Table {
	t.Helper()
	tab, err := Compile(MustNew(name, assoc))
	if err != nil {
		t.Fatalf("compile %s-%d: %v", name, assoc, err)
	}
	return tab
}

// TestBatchLaneOps covers the lane plumbing the polca batch planner leans
// on: LoadLane, CopyLane, ResetLane, SetState and Row aliasing.
func TestBatchLaneOps(t *testing.T) {
	tab := mustTable(t, "LRU", 4)
	cc0 := []int32{0, 1, 2, 3}
	b := NewBatch(tab, 4, cc0)
	for l := 0; l < 4; l++ {
		if b.State(l) != tab.InitState() {
			t.Fatalf("lane %d starts at state %d, want %d", l, b.State(l), tab.InitState())
		}
		for i, c := range b.Row(l) {
			if c != cc0[i] {
				t.Fatalf("lane %d content[%d] = %d, want %d", l, i, c, cc0[i])
			}
		}
	}
	// Drive lane 0 somewhere the way the engine does (step the table,
	// write the victim's row entry), fork it into lane 2, and check
	// independence.
	st, v := tab.Step(b.State(0), 4) // miss
	b.Row(0)[v] = 9
	st, _ = tab.Step(st, 1) // hit at line 1
	b.SetState(0, st)
	b.CopyLane(2, 0)
	if b.State(2) != st || b.Row(2)[v] != 9 {
		t.Fatal("CopyLane did not copy the state and row")
	}
	b.Row(2)[v] = 11
	if b.Row(0)[v] != 9 {
		t.Fatal("lane 2's row write leaked into lane 0")
	}
	// LoadLane round-trips an arbitrary position.
	row := append([]int32(nil), b.Row(2)...)
	b.ResetLane(2)
	if b.State(2) != tab.InitState() || b.Row(2)[v] != cc0[v] {
		t.Fatal("ResetLane did not rewind lane 2")
	}
	b.LoadLane(2, st, row)
	if b.State(2) != st || b.Row(2)[v] != 11 {
		t.Fatal("LoadLane did not restore the forked position")
	}
	// Row aliases the content matrix and stays inside its lane.
	b.Row(3)[0] = 42
	if b.Row(3)[0] != 42 || b.Row(2)[0] == 42 || cap(b.Row(3)) != 4 {
		t.Fatal("Row does not alias exactly its lane of the content matrix")
	}
}
