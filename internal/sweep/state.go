package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Sweep state persists to a versioned JSON file so an interrupted or
// re-invoked sweep resumes from its completed cells instead of recomputing
// them. The file is self-describing: it records the identity key (core,
// metric, target, seed, sampling) plus the exact combination and benchmark
// lists, and a loaded file is only trusted when all of them match the
// running sweep — a state file from a different configuration is discarded,
// never silently mixed in.

// StateVersion is the schema version written to (and required from) sweep
// state files.
const StateVersion = 1

// F64 is a float64 that survives JSON round-trips losslessly: regular
// values marshal as shortest-round-trip numbers (bit-identical after
// decode), and ±Inf/NaN — which encoding/json rejects — marshal as the
// strings "+inf", "-inf", "nan". Improvements are +Inf for a fully
// protected design ("max"), so sweep outcomes need this.
type F64 float64

// MarshalJSON implements json.Marshaler.
func (f F64) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-inf"`), nil
	case math.IsNaN(v):
		return []byte(`"nan"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *F64) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+inf":
			*f = F64(math.Inf(1))
		case "-inf":
			*f = F64(math.Inf(-1))
		case "nan":
			*f = F64(math.NaN())
		default:
			return fmt.Errorf("sweep: bad float literal %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = F64(v)
	return nil
}

// Key identifies a sweep for persistence: two runs share saved cells only
// when every field matches.
type Key struct {
	Core        string `json:"core"`
	Metric      string `json:"metric"`
	Target      F64    `json:"target"` // "+inf" for the max design point
	Seed        uint64 `json:"seed"`
	SamplesBase int    `json:"samples_base"`
	SamplesTech int    `json:"samples_tech"`
	// Techniques is the canonical technique-filter spec the sweep's
	// enumeration was built under ("" = full enumeration). A resumed sweep
	// with a different filter has a different combination grid, so its state
	// must be rejected, not silently mixed. omitempty keeps pre-filter state
	// files decoding (and matching) as the empty spec.
	Techniques string `json:"techniques,omitempty"`
	// FaultModel is the fault model the sweep's campaigns run under
	// (inject.ModelNames). The ssb default is normalized to "" so legacy
	// state files — written before fault models existed, all implicitly
	// single-bit — keep decoding and matching; any other model changes
	// every campaign in the grid, so resuming under a different model is
	// rejected like a technique-filter mismatch.
	FaultModel string `json:"fault_model,omitempty"`
}

// CellOutcome is the persisted result of one (combination, benchmark) cell.
// A non-empty Err marks a failed evaluation; failed cells are re-run on
// resume. Kind records the failure classification (panic stacks are kept
// in memory only — they are worthless to a resume and would bloat the
// state file).
type CellOutcome struct {
	SDCImp    F64    `json:"sdc_imp"`
	DUEImp    F64    `json:"due_imp"`
	Energy    F64    `json:"energy"`
	Area      F64    `json:"area"`
	TargetMet bool   `json:"target_met"`
	Err       string `json:"err,omitempty"`
	Kind      string `json:"kind,omitempty"`
}

// stateFile is the on-disk schema (see DESIGN.md §7).
type stateFile struct {
	Version int                    `json:"version"`
	Key     Key                    `json:"key"`
	Combos  []string               `json:"combos"`
	Benches []string               `json:"benches"`
	Cells   map[string]CellOutcome `json:"cells"` // "comboIdx:benchIdx"
}

func cellKey(ci, bi int) string {
	return strconv.Itoa(ci) + ":" + strconv.Itoa(bi)
}

func parseCellKey(s string) (ci, bi int, ok bool) {
	a, b, found := strings.Cut(s, ":")
	if !found {
		return 0, 0, false
	}
	ci, err1 := strconv.Atoi(a)
	bi, err2 := strconv.Atoi(b)
	return ci, bi, err1 == nil && err2 == nil
}

// loadState reads a state file and returns the completed cells indexed as
// combo*len(benches)+bench. A missing, unreadable, mismatched-version, or
// mismatched-identity file yields (nil, false): the sweep starts fresh and
// overwrites it.
func loadState(path string, sw Sweep) (map[int]CellOutcome, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	return decodeState(data, sw)
}

// decodeState parses and validates a state file body against the running
// sweep's identity. It is the trust boundary for resumable state — fuzzed
// directly (FuzzStateDecode), it must never panic on arbitrary bytes.
func decodeState(data []byte, sw Sweep) (map[int]CellOutcome, bool) {
	var st stateFile
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, false
	}
	if st.Version != StateVersion || st.Key != sw.Key {
		return nil, false
	}
	if len(st.Combos) != len(sw.Combos) || len(st.Benches) != len(sw.Benches) {
		return nil, false
	}
	for i, c := range sw.Combos {
		if st.Combos[i] != c.Name() {
			return nil, false
		}
	}
	for i, b := range sw.Benches {
		if st.Benches[i] != b.Name {
			return nil, false
		}
	}
	nB := len(sw.Benches)
	cells := make(map[int]CellOutcome, len(st.Cells))
	for k, v := range st.Cells {
		ci, bi, ok := parseCellKey(k)
		if !ok || ci < 0 || ci >= len(sw.Combos) || bi < 0 || bi >= nB {
			continue
		}
		if v.Err != "" {
			continue // failed cells are re-run on resume
		}
		cells[ci*nB+bi] = v
	}
	return cells, true
}

// saveState writes the sweep state atomically (temp file + rename in the
// destination directory), so a crash mid-write never corrupts a resumable
// file.
func saveState(path string, sw Sweep, cells []*CellOutcome) error {
	st := stateFile{
		Version: StateVersion,
		Key:     sw.Key,
		Combos:  make([]string, len(sw.Combos)),
		Benches: make([]string, len(sw.Benches)),
		Cells:   make(map[string]CellOutcome),
	}
	for i, c := range sw.Combos {
		st.Combos[i] = c.Name()
	}
	for i, b := range sw.Benches {
		st.Benches[i] = b.Name
	}
	nB := len(sw.Benches)
	for idx, co := range cells {
		if co == nil {
			continue
		}
		st.Cells[cellKey(idx/nB, idx%nB)] = *co
	}
	data, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".sweep-state-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
