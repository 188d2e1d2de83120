package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the output
// must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// treeHashes maps every file under dir to the SHA-256 of its content.
func treeHashes(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	out := map[string][32]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[path] = sha256.Sum256(data)
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return out
}

// lastResult parses the JSON result the output ends with.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return res
}

func metricNames(res result) []string {
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestQuickRunsEveryWorkload runs every workload in -quick mode, the traced
// form on one of them, and checks the result line against BENCHMARK.json:
// exactly the declared metrics with their units, every output correct. The
// runs must leave the repository's committed campaign cache byte-identical.
func TestQuickRunsEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	committed := filepath.Join("..", "..", "testdata", "cache")
	before := treeHashes(t, committed)

	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(specNames, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", specNames, ours)
	}

	for _, w := range workloads {
		traced := w.name == "sweep-warm"
		args := []string{"-workload", w.name, "-quick", "-seed", "11", "-tmp", t.TempDir()}
		want := spec.EndToEnd
		spans := filepath.Join(t.TempDir(), "spans.jsonl")
		if traced {
			args = append(args, "-trace", "1", "-spans", spans)
			want = spec.PerLayer
		}
		var stdout, stderr bytes.Buffer
		if code := cli(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d\nstdout:\n%s\nstderr:\n%s", w.name, code, stdout.String(), stderr.String())
		}
		res := lastResult(t, stdout.String())
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: result %+v", w.name, res)
		}
		var wantNames []string
		for _, m := range want {
			wantNames = append(wantNames, m.Name)
			if got, ok := res.Metrics[m.Name]; ok && got.Unit != m.Unit {
				t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
			}
		}
		sort.Strings(wantNames)
		if got := metricNames(res); strings.Join(got, ",") != strings.Join(wantNames, ",") {
			t.Errorf("%s: metrics\n%v\nBENCHMARK.json declares\n%v", w.name, got, wantNames)
		}
		if traced {
			checkSpansFile(t, spans)
		}
	}

	after := treeHashes(t, committed)
	if len(after) != len(before) {
		t.Errorf("committed cache has %d files after the runs, %d before", len(after), len(before))
	}
	for path, h := range before {
		if after[path] != h {
			t.Errorf("committed cache entry %s changed", path)
		}
	}
	if _, err := os.Stat("testdata"); !os.IsNotExist(err) {
		t.Errorf("a run created %s", filepath.Join("cmd", "clearbench", "testdata"))
	}
}

func checkSpansFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	names := map[string]bool{}
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("spans: %v", err)
		}
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		names[s.Name] = true
	}
	for _, n := range []string{"clearbench.iteration", "sweep.Run", "sweep.cell", "core.Engine.Campaign", "core.Engine.EvalCombo", "probe.inject"} {
		if !names[n] {
			t.Errorf("no %s span in %s", n, path)
		}
	}
}

func TestCLIRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "sweep-cold", "-trace", "2"},
		{"-workload", "sweep-cold", "-seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
