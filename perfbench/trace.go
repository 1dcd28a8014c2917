package main

import (
	"sort"
	"strconv"
	"strings"

	"blackforest/internal/obs"
)

// layerSpans maps the benchmark's span names, one per public call, to the
// per-layer metric that accumulates their time.
var layerSpans = map[string]string{
	"core.Collect":                "profiler.collect_s",
	"core.CollectPair":            "profiler.collect_s",
	"core.Analyze":                "core.analyze_s",
	"core.Bottlenecks":            "core.bottlenecks_s",
	"core.Analysis.Reduce":        "core.reduce_s",
	"core.NewProblemScaler":       "core.scaler_s",
	"core.ProblemScaler.Evaluate": "core.evaluate_s",
	"forest.PartialDependenceCI":  "forest.pd_s",
	"core.PCARefine":              "core.pca_s",
	"core.HardwareScale":          "core.hwscale_s",
}

// zeroLayers sets every per-layer metric to 0; a traced run then fills in
// the layers its workload exercises.
func zeroLayers(v map[string]float64) {
	for _, m := range perLayer {
		v[m.name] = 0
	}
}

// spanMetrics derives the pipeline layers' metrics from a traced run's
// events. wall is the traced phase's total wall time and passes the number
// of passes it made; times are reported per pass.
//
// The benchmark's spans on laneMain wrap one public call each and never
// nest, so each is its layer's self time, and the phase's wall time they
// leave uncovered is the benchmark's own work. The profiler's "simulate"
// spans, one per simulated run on a worker lane, carry the kernel and its
// launch count: they give the simulator's host time per launch, and the
// wall time during which at least one worker simulated.
func spanMetrics(events []obs.Event, wall, passes float64, v map[string]float64) {
	var covered, modeling, simTotal float64
	simNS := make(map[string]float64)
	launches := make(map[string]float64)
	var sims [][2]int64
	for _, ev := range events {
		if ev.Phase != 'X' {
			continue
		}
		dur := float64(ev.DurNS) / 1e9
		switch {
		case ev.Lane == laneMain:
			m, ok := layerSpans[ev.Name]
			if !ok {
				continue
			}
			v[m] += dur / passes
			covered += dur
			if m != "profiler.collect_s" {
				modeling += dur
			}
		case ev.Name == "simulate":
			var kernel string
			var n float64
			for _, a := range ev.Args {
				switch a.Key {
				case "workload":
					kernel = strings.TrimRight(a.Value, "0123456789")
				case "launches":
					n, _ = strconv.ParseFloat(a.Value, 64)
				}
			}
			simNS[kernel] += float64(ev.DurNS)
			launches[kernel] += n
			simTotal += dur
			sims = append(sims, [2]int64{ev.StartNS, ev.StartNS + ev.DurNS})
		}
	}
	for _, k := range kernelNames {
		if launches[k] > 0 {
			v["gpusim.host_us_per_launch."+k] = simNS[k] / 1e3 / launches[k]
		}
	}
	v["gpusim.simulate_s"] = simTotal / passes
	v["share.gpusim"] = float64(unionNS(sims)) / 1e9 / wall
	v["share.modeling"] = modeling / wall
	v["trace.uncovered_s"] = (wall - covered) / passes
	v["trace.spans"] = float64(len(events))
}

// unionNS is the total length of the union of [start, end) intervals.
func unionNS(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	started := false
	for _, x := range iv {
		switch {
		case !started || x[0] > end:
			total += x[1] - x[0]
			end, started = x[1], true
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}
