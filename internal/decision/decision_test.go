package decision

import "testing"

// TestUnmarshalTextAllocFree pins the enum text decoders' success paths
// at zero allocations: every Go client pays them twice per decision.
func TestUnmarshalTextAllocFree(t *testing.T) {
	names := [][]byte{[]byte("withdrawal"), []byte("challenge")}
	var sc Scenario
	var a Action
	if n := testing.AllocsPerRun(100, func() {
		if err := sc.UnmarshalText(names[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Scenario.UnmarshalText allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := a.UnmarshalText(names[1]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Action.UnmarshalText allocates %v times", n)
	}
	if sc != ScenarioWithdrawal || a != ActionChallenge {
		t.Fatalf("decoded %v, %v", sc, a)
	}
	if err := sc.UnmarshalText([]byte("nope")); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := a.UnmarshalText([]byte("review")); err == nil {
		t.Error("unknown action accepted")
	}
}
