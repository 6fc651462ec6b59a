package experiments

import (
	"encoding/json"
	"testing"
	"time"
)

// TestFig1SeedGolden pins Fig1's per-run seed sequence: the historical
// shared counter gave run i seed base+1+i, self-induced runs first, and the
// refactored planner must keep that forever.
func TestFig1SeedGolden(t *testing.T) {
	specs := fig1Plan(3, time.Second, 50)
	if len(specs) != 6 {
		t.Fatalf("plan has %d runs, want 6", len(specs))
	}
	for i, cfg := range specs {
		if want := int64(50 + 1 + i); cfg.Seed != want {
			t.Errorf("run %d: seed %d, want %d", i, cfg.Seed, want)
		}
		ext := i >= 3
		if got := cfg.CongFlows > 0; got != ext {
			t.Errorf("run %d: external=%v, want %v (self-induced runs come first)", i, got, ext)
		}
	}
}

// TestFig1ParallelMatchesSerial checks that fanning Fig1's runs across
// workers changes nothing: the CDFs must match bit for bit.
func TestFig1ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("emulation is expensive")
	}
	enc := func(workers int) []byte {
		r, err := Exec{Scale: Quick, Seed: 1, Workers: workers}.Fig1()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := enc(1)
	if got := enc(8); string(got) != string(serial) {
		t.Errorf("Fig1 workers=8 differs from serial:\n%s\nvs\n%s", serial, got)
	}
}
