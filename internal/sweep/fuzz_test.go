package sweep

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzStateDecode attacks the resumable-state decoder with arbitrary
// bytes: it must never panic, and anything it does accept must index
// inside the running sweep's cell grid.
func FuzzStateDecode(f *testing.F) {
	sw := fakeSweep(5, 2, arithEval(0))
	dir, err := os.MkdirTemp("", "sweep-fuzz")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "state.json")
	cells := make([]*CellOutcome, 10)
	cells[3] = &CellOutcome{SDCImp: 2, DUEImp: 1, Energy: 0.1, TargetMet: true}
	cells[7] = &CellOutcome{Err: "boom", Kind: "panic"}
	if err := saveState(path, sw, cells); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"cells":{"9999:9999":{}}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("cap adversarial allocation")
		}
		cellsIn, ok := decodeState(data, sw)
		if !ok {
			return
		}
		for idx := range cellsIn {
			if idx < 0 || idx >= len(sw.Combos)*len(sw.Benches) {
				t.Fatalf("decoded cell index %d outside the grid", idx)
			}
		}
	})
}
