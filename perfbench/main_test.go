package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestMetricTablesMatchBenchmarkJSON checks that BENCHMARK.json declares
// exactly the metrics the program prints, with the same units.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that its correctness checks pass and that it prints every named
// metric with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, fn := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := fn(settings{seed: 7, seconds: 0.5, traced: traced, size: tinySize})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			} else {
				out.values["peak_rss_mb"] = peakRSSMB()
			}
			line, err := encodeResult(out, specs)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d operations failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s (traced %v): %d metrics, want %d", name, traced, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				if got := res.Metrics[m.name]; got.Unit != m.unit {
					t.Errorf("%s (traced %v): %s has unit %q, want %q", name, traced, m.name, got.Unit, m.unit)
				}
			}
		}
	}
}

// closedPhase builds a closed-loop segment of 1 s whose i-th 0.2 s window
// completed 10 requests at latency p90s[i].
func closedPhase(p90s []float64) *phase {
	ph := &phase{}
	for w, p := range p90s {
		for i := 0; i < 10; i++ {
			ph.add(true, 1, p, p, 0)
			ph.doneS = append(ph.doneS, 0.2*float64(w)+0.01*float64(i))
		}
	}
	return ph
}

// TestClosedRates checks that slo_rps counts a window that missed the
// latency limit, or lies in a segment where a request failed, as 0, and
// that a window lost to a stall does not move the median.
func TestClosedRates(t *testing.T) {
	ok := []float64{1, 1, 1, 1, 1}
	stalled := []float64{1, 90, 1, 1, 1}
	failing := closedPhase(ok)
	failing.add(false, 1, 0, 0, 0)
	sc := &schedule{closed: []*phase{closedPhase(ok), closedPhase(stalled), failing}}
	all, held := sc.closedRates(time.Second, 25)
	if len(all) != 3*windows || median(all) != 50 {
		t.Errorf("window rates %v, want 15 of 50 per second", all)
	}
	zeros := 0
	for _, r := range held {
		if r == 0 {
			zeros++
		}
	}
	if zeros != 1+windows || median(held) != 50 {
		t.Errorf("held rates %v, want 6 zeros and a median of 50 per second", held)
	}
}

// TestWindows checks the per-window statistics behind the serving
// figures: a stall confined to one window does not move the median.
func TestWindows(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = 1
	}
	for i := 20; i < 40; i++ {
		lat[i] = 50 // the second window stalled
	}
	if got := windowQuantile(lat, 0.9); got != 1 {
		t.Errorf("window p90 %v, want 1", got)
	}
	ph := &phase{doneS: []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 1.2}, latMS: []float64{1, 1, 1, 1, 1, 1, 1}}
	if got, _ := ph.windowRates(time.Second); len(got) != windows || median(got) != 5 {
		t.Errorf("window rates %v, want median 5 per second", got)
	}
}

// TestPassCount checks that a run's pass count depends only on its length.
func TestPassCount(t *testing.T) {
	for _, c := range []struct {
		seconds, pass float64
		want          int
	}{{15, 5, 3}, {15, 1.2, 13}, {1, 5, 1}, {28, 14, 2}} {
		if got := passCount(c.seconds, c.pass); got != c.want {
			t.Errorf("passCount(%v, %v) = %d, want %d", c.seconds, c.pass, got, c.want)
		}
	}
}
