package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime/debug"
	"sort"
	"time"

	"blackforest/internal/experiments"
	"blackforest/internal/obs"
	"blackforest/internal/profiler"
	"blackforest/internal/runcache"
)

// sizing scales every workload; fullSize is the benchmark, tinySize the
// smoke test's.
type sizing struct {
	name   string // keys the pinned digests
	scale  experiments.Scale
	nwMax  int
	setups int // set-ups per run; setup_s is their median
	// coldPassS and warmPassS are the nominal lengths of one sweep-cold and
	// one analyze-warm pass. A run makes --seconds / nominal passes (at
	// least one), so what a run aggregates over is the same on every host.
	// The nominal length is not the measured one: a cold pass takes 6 to
	// 14 s as the host's speed moves, so a 15 s run makes three cold passes
	// in 19 to 42 s.
	coldPassS, warmPassS float64
	serve                serveSizing
}

var fullSize = sizing{
	name: "full", scale: experiments.Full, nwMax: 3072, setups: 3,
	coldPassS: 5, warmPassS: 1.2,
	serve: serveSizing{
		keys: 8192, fixedRate: 4000, limitMS: 25, batchRows: 64, batchRate: 100,
	},
}

var tinySize = sizing{
	name: "tiny", scale: experiments.Quick, nwMax: 1024, setups: 2,
	coldPassS: 0.25, warmPassS: 0.25,
	serve: serveSizing{
		keys: 64, fixedRate: 200, limitMS: 50, batchRows: 8, batchRate: 20,
	},
}

// passCount is the number of passes of nominal length passS that fill
// seconds, at least one.
func passCount(seconds, passS float64) int {
	return max(1, int(math.Round(seconds/passS)))
}

// sweepPass is one timed pass over the analyses.
type sweepPass struct {
	wall    time.Duration
	unitMS  map[string]float64
	rows    int
	results map[string]*unitResult
	p       *pipeline
}

// runPass runs the units in a seeded order through p. The order is the
// only thing the workload seed changes: every result must be the same in
// any order, which the pinned and reference digests check.
func runPass(p *pipeline, units []unit, order *rand.Rand) (*sweepPass, error) {
	perm := order.Perm(len(units))
	// A hardware-scaling analysis reuses the training-device sweep of the
	// problem-scaling analysis of the same kernel. Keeping it second keeps
	// each analysis's cost, and so p50_ms and p90_ms, the same in any order.
	pos := make(map[string]int)
	for i, j := range perm {
		pos[units[j].name] = i
	}
	for _, k := range []string{"matmul", "needle"} {
		pi, okp := pos[k+".problem"]
		hi, okh := pos[k+".hw"]
		if okp && okh && hi < pi {
			perm[pi], perm[hi] = perm[hi], perm[pi]
		}
	}
	pass := &sweepPass{unitMS: make(map[string]float64), results: make(map[string]*unitResult), p: p}
	start := time.Now()
	for _, i := range perm {
		u := units[i]
		sp := p.tr.Begin(laneMain, "unit "+u.name)
		t0 := time.Now()
		r, err := u.run(p)
		pass.unitMS[u.name] = msSince(t0)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.name, err)
		}
		pass.results[u.name] = r
		pass.rows += r.rows
	}
	pass.wall = time.Since(start)
	return pass, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// orderRand derives a pass's unit-order generator from the workload seed.
func orderRand(seed uint64, pass int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(pass)))
}

// runSweepCold runs every analysis from an empty run cache: the simulator
// does most of the work. Each pass gets a fresh memory-only cache.
func runSweepCold(s settings) (*outcome, error) {
	out := newOutcome()
	units := analysisUnits(true)

	// Set-up: warm the process with the tiny-size sweep on a throwaway
	// cache, so the timed sweep does not pay for first use of the heap and
	// of each kernel's code.
	setups := make([]float64, s.size.setups)
	for i := range setups {
		debug.FreeOSMemory() // so the peak resident set is one warm-up's
		t0 := time.Now()
		p, err := newPipeline(tinySize, "", nil)
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			if _, err := u.run(p); err != nil {
				return nil, fmt.Errorf("warm-up: %s: %w", u.name, err)
			}
		}
		setups[i] = time.Since(t0).Seconds()
	}
	out.values["setup_s"] = median(setups)

	passes, err := timedPasses(s, out, units, passCount(s.seconds, s.size.coldPassS), func(tr *obs.Tracer) (*pipeline, error) {
		return newPipeline(s.size, "", tr)
	}, nil)
	if err != nil {
		return nil, err
	}
	for _, pass := range passes.untraced {
		for _, u := range units {
			got := pass.results[u.name].pin
			want, ok := pins[s.size.name+"/"+u.name]
			out.check(ok && got == want, "%s: frame digest %s, pinned %s", u.name, got, want)
		}
	}
	last := passes.untraced[len(passes.untraced)-1]
	out.values["medape_pct.problem"] = last.results["needle.problem"].medape
	out.values["medape_pct.hw"] = last.results["needle.hw"].medape
	passes.report(s, out)
	return out, nil
}

// runAnalyzeWarm repeats the non-NW analyses over an on-disk run cache that
// set-up filled: the simulator does nothing and the modeling layers do
// most of the work. Each pass opens a fresh cache over the same directory,
// as a rerun of bfbench -cache-dir does.
func runAnalyzeWarm(s settings) (*outcome, error) {
	out := newOutcome()
	units := analysisUnits(false)

	// Set-up: the experiments runners fill a fresh on-disk cache through
	// an experiments.Engine, size.setups times. Their renderings are the
	// reference every timed pass must reproduce byte for byte, and every
	// fill must render like the first. The last fill's cache is kept.
	var dir string
	defer func() { os.RemoveAll(dir) }()
	var want map[string][]byte
	times := make([]float64, s.size.setups)
	for i := range times {
		os.RemoveAll(dir)
		var err error
		if dir, err = os.MkdirTemp("", "perfbench-cache-"); err != nil {
			return nil, err
		}
		debug.FreeOSMemory() // so the peak resident set is one fill's
		t0 := time.Now()
		engine, err := experiments.NewEngine(experiments.EngineConfig{CacheDir: dir, Workers: procs})
		if err != nil {
			return nil, err
		}
		o := experiments.Options{Scale: s.size.scale, Seed: pipelineSeed, Engine: engine}
		got := make(map[string][]byte)
		for _, u := range units {
			r, err := u.oracle(o)
			if err != nil {
				return nil, fmt.Errorf("filling the cache: %s: %w", u.name, err)
			}
			got[u.name] = r.render
		}
		times[i] = time.Since(t0).Seconds()
		if want != nil {
			for name, r := range got {
				out.check(bytes.Equal(r, want[name]), "%s: two set-up fills rendered differently", name)
			}
		}
		want = got
	}
	out.values["setup_s"] = median(times)

	passes, err := timedPasses(s, out, units, passCount(s.seconds, s.size.warmPassS), func(tr *obs.Tracer) (*pipeline, error) {
		return newPipeline(s.size, dir, tr)
	}, func(pass *sweepPass) {
		for _, u := range units {
			out.check(bytes.Equal(pass.results[u.name].render, want[u.name]),
				"%s: warm pass rendered differently from the set-up pass", u.name)
		}
		st := pass.p.cache.Stats()
		out.check(st.Misses == 0 && st.BadEntries == 0, "warm pass simulated: %+v", st)
	})
	if err != nil {
		return nil, err
	}
	last := passes.untraced[len(passes.untraced)-1]
	out.values["medape_pct.problem"] = last.results["matmul.problem"].medape
	out.values["medape_pct.hw"] = last.results["matmul.hw"].medape
	passes.report(s, out)
	return out, nil
}

// passSet is a workload's timed passes: untraced ones, and in a traced run
// as many traced ones after them.
type passSet struct {
	untraced, traced []*sweepPass
	tracer           *obs.Tracer
}

// timedPasses makes n passes, each on a fresh pipeline. A traced run then
// makes n more with tracing on. check, when set, verifies each pass.
func timedPasses(s settings, out *outcome, units []unit, n int, open func(*obs.Tracer) (*pipeline, error), check func(*sweepPass)) (*passSet, error) {
	var ps passSet
	run := func(tr *obs.Tracer) ([]*sweepPass, error) {
		var passes []*sweepPass
		for i := 0; i < n; i++ {
			// Every pass starts from a collected heap, so no pass pays for
			// the one before it and the peak resident set is one pass's.
			debug.FreeOSMemory()
			p, err := open(tr)
			if err != nil {
				return nil, err
			}
			pass, err := runPass(p, units, orderRand(s.seed, len(passes)))
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "pass %d: %.2f s\n", i, pass.wall.Seconds())
			if check != nil {
				check(pass)
			}
			passes = append(passes, pass)
		}
		return passes, nil
	}
	var err error
	if ps.untraced, err = run(nil); err != nil {
		return nil, err
	}
	if s.traced {
		ps.tracer = obs.NewTracer(nil)
		if ps.traced, err = run(ps.tracer); err != nil {
			return nil, err
		}
	}
	// Passes must agree with each other whatever their order, traced or not.
	first := ps.untraced[0]
	for _, pass := range append(append([]*sweepPass(nil), ps.untraced[1:]...), ps.traced...) {
		for name, r := range pass.results {
			out.check(bytes.Equal(r.render, first.results[name].render), "%s rendered differently in two passes", name)
		}
	}
	return &ps, nil
}

// typicalPass builds a typical pass from passes, analysis by analysis: each
// analysis's time is its median over the passes, and the pass's wall time
// is the sum of those medians. The passes ran in different orders, seconds
// apart, so a slow stretch of the host that hits one analysis in one pass
// moves no figure.
func typicalPass(passes []*sweepPass) (wallS float64, unitMS []float64) {
	names := make([]string, 0, len(passes[0].unitMS))
	for name := range passes[0].unitMS {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var times []float64
		for _, pass := range passes {
			times = append(times, pass.unitMS[name])
		}
		m := median(times)
		unitMS = append(unitMS, m)
		wallS += m / 1e3
	}
	return wallS, unitMS
}

// report sets the workload's timing metrics from its typical untraced pass.
func (ps *passSet) report(s settings, out *outcome) {
	wall, unitMS := typicalPass(ps.untraced)
	out.values["p50_ms"] = quantile(unitMS, 0.5)
	out.values["p90_ms"] = quantile(unitMS, 0.9)
	out.values["slo_rps"] = float64(len(unitMS)) / wall
	out.values["rows_per_s"] = float64(ps.untraced[0].rows) / wall
	out.values["run_s"] = wall
	out.attempted += len(unitMS) * len(ps.untraced)
	if s.traced {
		ps.layerMetrics(out)
	}
}

// layerMetrics derives the per-layer metrics of a traced sweep or
// analysis run from its traced passes.
func (ps *passSet) layerMetrics(out *outcome) {
	var total float64
	for _, pass := range ps.traced {
		total += pass.wall.Seconds()
	}
	n := float64(len(ps.traced))
	zeroLayers(out.values)
	spanMetrics(ps.tracer.Events(), total, n, out.values)
	tracedWall, _ := typicalPass(ps.traced)
	out.values["trace.overhead_s"] = tracedWall - out.values["run_s"]

	last := ps.traced[len(ps.traced)-1]
	st := last.p.cache.Stats()
	out.values["runcache.misses"] = float64(st.Misses)
	out.values["runcache.mem_hits"] = float64(st.MemHits)
	out.values["runcache.disk_hits"] = float64(st.DiskHits)
	out.values["runcache.bad_entries"] = float64(st.BadEntries)
	out.values["runcache.hit_rate"] = st.HitRate()
	out.values["runcache.hit_us"] = 0
	if st.Misses == 0 && st.Hits() > 0 {
		out.values["runcache.hit_us"] = 1e6 * out.values["profiler.collect_s"] / float64(st.Hits())
	}
	launches, cycles, err := last.p.modeledWork()
	out.check(err == nil, "looking up the profiles behind the frames: %v", err)
	out.values["gpusim.launches"] = launches
	out.values["gpusim.sim_cycles"] = cycles
}

// modeledWork sums the kernel launches and modeled cycles of every distinct
// run the pipeline collected, looked up in its run cache. Both are fixed by
// the inputs: a change that only makes the simulator faster leaves them
// unchanged.
func (p *pipeline) modeledWork() (launches, cycles float64, err error) {
	seen := make(map[runcache.Key]bool)
	for _, c := range p.collected {
		pr := profiler.New(c.dev, profiler.Options{
			MaxSimBlocks: c.opt.MaxSimBlocks, NoiseSigma: c.opt.NoiseSigma, Seed: c.opt.Seed, Cache: p.cache,
		})
		for _, w := range c.runs {
			k := pr.RunKey(w)
			if seen[k] {
				continue
			}
			seen[k] = true
			prof, err := pr.Run(w)
			if err != nil {
				return 0, 0, err
			}
			launches += float64(prof.Launches)
			cycles += prof.Cycles
		}
	}
	return launches, cycles, nil
}
