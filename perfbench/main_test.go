package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the program must
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %q, program has %q", got, workloadNames())
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i := 0; i < min(len(b.EndToEnd), len(endToEnd)); i++ {
		if b.EndToEnd[i].Name != endToEnd[i].name || b.EndToEnd[i].Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], program %s [%s]", i,
				b.EndToEnd[i].Name, b.EndToEnd[i].Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, program %d", len(b.PerLayer), len(perLayer))
	}
	for i := 0; i < min(len(b.PerLayer), len(perLayer)); i++ {
		if b.PerLayer[i].Name != perLayer[i].name || b.PerLayer[i].Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], program %s [%s]", i,
				b.PerLayer[i].Name, b.PerLayer[i].Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func tinyOptions(t *testing.T, wl string, trace bool) options {
	return options{workload: wl, seed: 7, seconds: 0.3, trace: trace, tiny: true,
		traceOut: filepath.Join(t.TempDir(), "trace.json"), corruptOp: -1}
}

func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := tinyOptions(t, w.name, trace)
			res, err := execute(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, d.name)
					continue
				}
				if m.Unit != d.unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if trace {
				if _, err := os.Stat(o.traceOut); err != nil {
					t.Errorf("%s: no trace written: %v", w.name, err)
				}
			}
		}
	}
}

func TestCorruptedResultCountsAsFailed(t *testing.T) {
	for _, w := range workloads {
		o := tinyOptions(t, w.name, false)
		o.corruptOp = 2 // the second set-up operation
		res, err := execute(o, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: corrupted op gave correct=%v failed=%d, want false and 1", w.name, res.Correct, res.Failed)
		}
	}
}

func TestChecker(t *testing.T) {
	in := []uint64{5, 1, 4, 1, 3}
	want := digestOf(in)
	for _, tc := range []struct {
		name string
		out  []uint64
		ok   bool
	}{
		{"sorted", []uint64{1, 1, 3, 4, 5}, true},
		{"out of order", []uint64{1, 3, 1, 4, 5}, false},
		{"dropped key", []uint64{1, 3, 4, 5}, false},
		{"duplicated key", []uint64{1, 1, 1, 3, 4, 5}, false},
		{"changed key", []uint64{1, 1, 3, 4, 6}, false},
		{"swapped for another multiset", []uint64{1, 2, 2, 4, 5}, false},
	} {
		if err := checkSorted(tc.out, want); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// Split across pieces, as rank partitions arrive.
	c := newChecker(want)
	c.add([]uint64{1, 1, 4})
	c.add([]uint64{3, 5})
	if c.err() == nil {
		t.Error("order violation across pieces not detected")
	}
}

func TestParseKeys(t *testing.T) {
	got, err := parseKeys(strings.NewReader("0\n18446744073709551615\n42\n"), nil)
	if err != nil || len(got) != 3 || got[1] != 1<<64-1 || got[2] != 42 {
		t.Fatalf("parseKeys = %v, %v", got, err)
	}
	for _, bad := range []string{"12\n34", "1x\n", "18446744073709551616\n", "\n"} {
		if _, err := parseKeys(strings.NewReader(bad), nil); err == nil {
			t.Errorf("parseKeys(%q) accepted malformed input", bad)
		}
	}
}

func TestTail(t *testing.T) {
	for _, tc := range []struct {
		n        int
		value    float64
		pct      float64
		describe string
	}{
		{100, 90, 90, "10 beyond p90"},
		{99, 75, 75, "9 beyond p90, so p75"},
		{39, 20, 50, "9 beyond p75, so the median"},
		{4000, 3960, 99, "40 beyond p99, 4 beyond p99.9"},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1)
		}
		if v, pct, n := tail(xs); v != tc.value || pct != tc.pct || n != tc.n {
			t.Errorf("tail of 1..%d = %v at p%v, want %v at p%v (%s)", tc.n, v, pct, tc.value, tc.pct, tc.describe)
		}
	}
}

// TestModelMakespanRepeats runs the modelled paper workload twice on one
// seed: its makespan is virtual time, a pure function of the inputs, so it
// must repeat exactly however fast the host ran.
func TestModelMakespanRepeats(t *testing.T) {
	var got []float64
	for i := 0; i < 2; i++ {
		res, err := execute(tinyOptions(t, "paper-model", false), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Metrics["makespan_ms"].Value)
	}
	if got[0] <= 0 || got[0] != got[1] {
		t.Errorf("paper-model makespan_ms = %v then %v on one seed, want one positive value", got[0], got[1])
	}
}
