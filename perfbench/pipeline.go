package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"

	"blackforest/internal/core"
	"blackforest/internal/dataset"
	"blackforest/internal/experiments"
	"blackforest/internal/forest"
	"blackforest/internal/gpusim"
	"blackforest/internal/kernels"
	"blackforest/internal/obs"
	"blackforest/internal/profiler"
	"blackforest/internal/runcache"
)

// pipelineSeed seeds every sweep, the profiler noise and the forests. It is
// bfbench's default and stays fixed, so the model-error metrics and the
// pinned frame digests do not depend on the workload seed: only the order
// in which analyses are submitted does.
const pipelineSeed = 1

// trainDevice and targetDevice are the paper's hardware-scaling pair.
const (
	trainDevice  = "GTX580"
	targetDevice = "K20m"
)

// laneMain is the trace lane of the benchmark's own spans. The profiler's
// worker lanes are 0..procs-1 and profiler.LaneCache.
const laneMain = 100

// pipeline runs analyses through the packages' public calls. Each call is
// wrapped in a span on laneMain, so a traced run attributes wall time to
// the layer behind each call; the untraced run passes a nil tracer.
type pipeline struct {
	o     experiments.Options // Scale and the pipeline seed
	nwMax int
	cache *runcache.Cache[*profiler.Profile]
	gate  profiler.Gate
	tr    *obs.Tracer
	// collected records every collection, so a traced run can count the
	// launches and modeled cycles behind the frames it modeled.
	collected []collection
}

type collection struct {
	dev  *gpusim.Device
	opt  core.CollectOptions
	runs []profiler.Workload
}

// newPipeline opens a run cache (on disk under dir, or memory-only when dir
// is "") and a simulation gate of procs slots: the two pieces an
// experiments.Engine bundles, held here so every collection goes through
// core.Collect/CollectPair directly.
func newPipeline(size sizing, dir string, tr *obs.Tracer) (*pipeline, error) {
	cache, err := profiler.NewRunCache(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("opening run cache: %w", err)
	}
	return &pipeline{
		o:     experiments.Options{Scale: size.scale, Seed: pipelineSeed},
		nwMax: size.nwMax,
		cache: cache,
		gate:  profiler.NewGate(procs),
		tr:    tr,
	}, nil
}

// call runs fn inside a span named after the public call it wraps.
func (p *pipeline) call(name string, fn func() error) error {
	sp := p.tr.Begin(laneMain, name)
	err := fn()
	sp.End()
	return err
}

// config mirrors the experiments package's pipeline configuration.
func (p *pipeline) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Forest = forest.DefaultConfig()
	if p.o.Scale == experiments.Quick {
		cfg.Forest.NTrees = 120
	}
	cfg.Seed = p.o.Seed
	return cfg
}

// collectOptions mirrors the experiments package's collection options, with
// this pipeline's cache, gate and tracer.
func (p *pipeline) collectOptions(seed uint64) core.CollectOptions {
	msb := 16
	if p.o.Scale == experiments.Quick {
		msb = 8
	}
	return core.CollectOptions{MaxSimBlocks: msb, Seed: seed, Cache: p.cache, Gate: p.gate, Tracer: p.tr}
}

func (p *pipeline) collect(dev *gpusim.Device, runs []profiler.Workload) (*dataset.Frame, error) {
	opt := p.collectOptions(p.o.Seed)
	p.collected = append(p.collected, collection{dev, opt, runs})
	var f *dataset.Frame
	err := p.call("core.Collect", func() (err error) {
		f, err = core.Collect(dev, runs, opt)
		return err
	})
	return f, err
}

// collectPair profiles one sweep on both devices, with the target seed the
// experiments package uses.
func (p *pipeline) collectPair(trainRuns, targetRuns []profiler.Workload) (fa, fb *dataset.Frame, err error) {
	devA, devB := device(trainDevice), device(targetDevice)
	optA := p.collectOptions(p.o.Seed)
	optB := p.collectOptions(p.o.Seed ^ 0xca11b)
	p.collected = append(p.collected, collection{devA, optA, trainRuns}, collection{devB, optB, targetRuns})
	err = p.call("core.CollectPair", func() (err error) {
		fa, fb, err = core.CollectPair(devA, trainRuns, optA, devB, targetRuns, optB)
		return err
	})
	return fa, fb, err
}

func (p *pipeline) analyze(f *dataset.Frame) (*core.Analysis, error) {
	var a *core.Analysis
	err := p.call("core.Analyze", func() (err error) {
		a, err = core.Analyze(f, p.config())
		return err
	})
	return a, err
}

func (p *pipeline) bottlenecks(a *core.Analysis) ([]core.Bottleneck, error) {
	var bn []core.Bottleneck
	err := p.call("core.Bottlenecks", func() (err error) {
		bn, err = a.Bottlenecks(8)
		return err
	})
	return bn, err
}

func device(name string) *gpusim.Device {
	dev, err := gpusim.LookupDevice(name)
	if err != nil {
		panic(err) // both names are in the built-in device table
	}
	return dev
}

// unit is one analysis of the sweep: a paper figure (or one of the extra
// workload analyses) reproduced through the pipeline's public calls.
type unit struct {
	name string
	run  func(p *pipeline) (*unitResult, error)
	// oracle runs the same analysis through the experiments package's
	// runner; nil for the capped NW sweep, which no runner reproduces.
	oracle func(o experiments.Options) (*unitResult, error)
}

// unitResult is one analysis's checked output.
type unitResult struct {
	// render is the figure's text rendering followed by a digest of every
	// number behind it, so two results render byte-identically only when
	// they agree bit for bit.
	render []byte
	// pin digests the collected frames (Float64bits of every counter and
	// time) and, for NW, the model errors; it is compared with pins.
	pin string
	// rows is the number of frame rows the analysis modeled.
	rows int
	// medape holds the problem-scaling or hardware-scaling median APE, in
	// percent, of units that produce one (NaN otherwise).
	medape float64
}

// analysisUnits lists the sweep's analyses; withNW adds the NW problem and
// hardware scaling over sequence lengths 64..nwMax.
func analysisUnits(withNW bool) []unit {
	var us []unit
	for v := 0; v <= 6; v++ {
		v := v
		us = append(us, unit{
			name: fmt.Sprintf("reduce%d", v),
			run:  func(p *pipeline) (*unitResult, error) { return p.reductionAnalysis(v) },
			oracle: func(o experiments.Options) (*unitResult, error) {
				r, err := experiments.RunReductionAnalysis(v, o)
				if err != nil {
					return nil, err
				}
				return reductionResult(r)
			},
		})
	}
	us = append(us,
		unit{
			name: "matmul.problem",
			run: func(p *pipeline) (*unitResult, error) {
				return p.problemScaling("matmul", experiments.MatMulSweep(p.o), core.AutoModel)
			},
			oracle: func(o experiments.Options) (*unitResult, error) {
				r, err := experiments.RunMatMulPrediction(o)
				if err != nil {
					return nil, err
				}
				return problemResult(r)
			},
		},
		unit{
			name: "matmul.hw",
			run: func(p *pipeline) (*unitResult, error) {
				return p.hardwareScaling("matmul", experiments.MatMulSweep(p.o), experiments.MatMulSweep(p.o))
			},
			oracle: func(o experiments.Options) (*unitResult, error) {
				r, err := experiments.RunHWScalingMM(o)
				if err != nil {
					return nil, err
				}
				return hwResult(r, nil, nil)
			},
		},
	)
	for v := 0; v <= 2; v++ {
		v := v
		us = append(us, unit{
			name: fmt.Sprintf("transpose%d", v),
			run: func(p *pipeline) (*unitResult, error) {
				return p.workloadAnalysis(fmt.Sprintf("transpose%d", v), transposeSweep(v, p.o))
			},
			oracle: func(o experiments.Options) (*unitResult, error) {
				r, err := experiments.RunTransposeAnalysis(v, o)
				if err != nil {
					return nil, err
				}
				return workloadResult(r)
			},
		})
	}
	for v := 0; v <= 1; v++ {
		v := v
		us = append(us, unit{
			name: fmt.Sprintf("histogram%d", v),
			run: func(p *pipeline) (*unitResult, error) {
				return p.workloadAnalysis(fmt.Sprintf("histogram%d", v), histogramSweep(v, p.o))
			},
			oracle: func(o experiments.Options) (*unitResult, error) {
				r, err := experiments.RunHistogramAnalysis(v, o)
				if err != nil {
					return nil, err
				}
				return workloadResult(r)
			},
		})
	}
	if withNW {
		us = append(us,
			unit{name: "needle.problem", run: func(p *pipeline) (*unitResult, error) {
				return p.problemScaling("needle", nwSweep(p.o.Seed, p.nwMax), core.MARSModel)
			}},
			unit{name: "needle.hw", run: func(p *pipeline) (*unitResult, error) {
				return p.hardwareScaling("needle", nwSweep(p.o.Seed, p.nwMax), nwSweep(p.o.Seed, p.nwMax))
			}},
		)
	}
	return us
}

// transposeSweep and histogramSweep rebuild the runs of
// experiments.RunTransposeAnalysis and RunHistogramAnalysis, which do not
// export their sweeps. A divergence shows as a failed oracle check.
func transposeSweep(variant int, o experiments.Options) []profiler.Workload {
	sizes := []int{64, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048}
	if o.Scale == experiments.Quick {
		sizes = []int{64, 128, 256, 384, 512}
	}
	var runs []profiler.Workload
	seed := o.Seed
	for r := 0; r < 3; r++ {
		for _, n := range sizes {
			seed++
			runs = append(runs, &kernels.Transpose{Variant: variant, N: n, Seed: seed})
		}
	}
	return runs
}

func histogramSweep(variant int, o experiments.Options) []profiler.Workload {
	sizes := []int{1 << 16, 1 << 18, 1 << 20, 1 << 21}
	skews := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.97}
	if o.Scale == experiments.Quick {
		sizes = []int{1 << 14, 1 << 16, 1 << 18}
		skews = []float64{0, 0.25, 0.5, 0.75, 0.9}
	}
	var runs []profiler.Workload
	seed := o.Seed
	for _, n := range sizes {
		for _, sk := range skews {
			seed++
			runs = append(runs, &kernels.Histogram{Variant: variant, N: n, Skew: sk, Seed: seed})
		}
	}
	return runs
}

// nwSweep is experiments.NWSweep's paper sweep (pitch 64) capped at
// maxLen. At 3072 the mixed-variable model beats the straightforward one,
// as in the paper's Figure 8; at 2048 and below the result flips.
func nwSweep(seed uint64, maxLen int) []profiler.Workload {
	var runs []profiler.Workload
	for n := 64; n <= maxLen; n += 64 {
		seed++
		runs = append(runs, &kernels.NeedlemanWunsch{SeqLen: n, Seed: seed})
	}
	return runs
}

func (p *pipeline) reductionAnalysis(variant int) (*unitResult, error) {
	frame, err := p.collect(device(trainDevice), experiments.ReductionSweep(variant, p.o))
	if err != nil {
		return nil, err
	}
	a, err := p.analyze(frame)
	if err != nil {
		return nil, err
	}
	bn, err := p.bottlenecks(a)
	if err != nil {
		return nil, err
	}
	r := &experiments.ReductionAnalysis{
		Variant: variant, Device: trainDevice, Frame: frame, Analysis: a, Bottlenecks: bn,
		PDName: a.Importance[0].Name,
	}
	err = p.call("forest.PartialDependenceCI", func() (err error) {
		r.PDGrid, r.PDResponse, r.PDLo, r.PDHi, err = a.Forest.PartialDependenceCI(r.PDName, 25, 0.9)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = p.call("core.PCARefine", func() (err error) {
		r.PCA, err = a.PCARefine(false)
		return err
	})
	if err != nil {
		return nil, err
	}
	return reductionResult(r)
}

func (p *pipeline) problemScaling(name string, runs []profiler.Workload, kind core.ModelKind) (*unitResult, error) {
	r, err := p.fitProblemScaling(name, runs, kind)
	if err != nil {
		return nil, err
	}
	return problemResult(r)
}

// fitProblemScaling is the §6.1 experiment: collect, analyze, reduce, fit
// the counter models and evaluate on the held-out runs.
func (p *pipeline) fitProblemScaling(name string, runs []profiler.Workload, kind core.ModelKind) (*experiments.ProblemScaling, error) {
	frame, err := p.collect(device(trainDevice), runs)
	if err != nil {
		return nil, err
	}
	a, err := p.analyze(frame)
	if err != nil {
		return nil, err
	}
	cfg := p.config()
	r := &experiments.ProblemScaling{Workload: name, Device: trainDevice, Frame: frame, Analysis: a}
	err = p.call("core.Analysis.Reduce", func() (err error) {
		r.Reduced, r.RetainedPower, err = a.Reduce(cfg.TopK, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = p.call("core.NewProblemScaler", func() (err error) {
		r.Scaler, err = core.NewProblemScaler(a, cfg.TopK, kind)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = p.call("core.ProblemScaler.Evaluate", func() (err error) {
		r.Eval, err = r.Scaler.Evaluate(a.Test)
		return err
	})
	if err != nil {
		return nil, err
	}
	// The rendered counter table needs only each model's fit statistics;
	// the per-size curves are plotted by bfbench, not rendered.
	names := make([]string, 0, len(r.Scaler.Models))
	for n := range r.Scaler.Models {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cm := r.Scaler.Models[n]
		r.CounterSeries = append(r.CounterSeries, experiments.CounterSeries{
			Counter: n, Kind: cm.Kind, R2: cm.TrainR2, Deviance: cm.ResidualDeviance,
		})
	}
	return r, nil
}

func (p *pipeline) hardwareScaling(name string, trainRuns, targetRuns []profiler.Workload) (*unitResult, error) {
	fa, fb, err := p.collectPair(trainRuns, targetRuns)
	if err != nil {
		return nil, err
	}
	var hw *core.HWScaling
	err = p.call("core.HardwareScale", func() (err error) {
		hw, err = core.HardwareScale(fa, fb, device(trainDevice), device(targetDevice), p.config())
		return err
	})
	if err != nil {
		return nil, err
	}
	return hwResult(&experiments.HWScaling{Workload: name, Result: hw}, fa, fb)
}

func (p *pipeline) workloadAnalysis(name string, runs []profiler.Workload) (*unitResult, error) {
	frame, err := p.collect(device(trainDevice), runs)
	if err != nil {
		return nil, err
	}
	a, err := p.analyze(frame)
	if err != nil {
		return nil, err
	}
	bn, err := p.bottlenecks(a)
	if err != nil {
		return nil, err
	}
	return workloadResult(&experiments.WorkloadAnalysis{Workload: name, Analysis: a, Bottlenecks: bn})
}

// The *Result functions turn an experiments result — built by the
// pipeline above or by the experiments runner — into a unitResult, so the
// two can be compared byte for byte.

func reductionResult(r *experiments.ReductionAnalysis) (*unitResult, error) {
	return newResult(r, []*dataset.Frame{r.Frame}, math.NaN(), func(h io.Writer) {
		printAnalysis(h, r.Analysis)
		fmt.Fprintf(h, "%v %v|%v|%v|%v|%v|%v|%v|%v\n", r.Bottlenecks, r.PDName, r.PDGrid, r.PDResponse, r.PDLo, r.PDHi,
			r.PCA.Components, r.PCA.ExplainedVariance, r.PCA.Loadings)
		fmt.Fprintf(h, "%v\n", r.PCA.Labels)
	})
}

func problemResult(r *experiments.ProblemScaling) (*unitResult, error) {
	return newResult(r, []*dataset.Frame{r.Frame}, medAPE(r.Eval), func(h io.Writer) {
		printAnalysis(h, r.Analysis)
		printAnalysis(h, r.Reduced)
		fmt.Fprintf(h, "%v %v\n", r.RetainedPower, r.Scaler.CharNames)
		for _, cs := range r.CounterSeries {
			fmt.Fprintf(h, "%v %v %v %v\n", cs.Counter, cs.Kind, cs.R2, cs.Deviance)
		}
		fmt.Fprintf(h, "%v\n", *r.Eval)
	})
}

// hwResult takes the collected frames separately: core.HWScaling keeps
// only the evaluations. The experiments runner does not return its
// frames, so its result digests none and is compared on render alone.
func hwResult(r *experiments.HWScaling, fa, fb *dataset.Frame) (*unitResult, error) {
	var frames []*dataset.Frame
	if fa != nil {
		frames = []*dataset.Frame{fa, fb}
	}
	hw := r.Result
	return newResult(r, frames, medAPE(hw.Mixed), func(h io.Writer) {
		fmt.Fprintf(h, "%v %v %v %v %v\n", hw.TrainImportance, hw.TargetImportance, hw.Similarity, hw.Similar, hw.MixedVariables)
		fmt.Fprintf(h, "%v\n%v\n", *hw.Straightforward, *hw.Mixed)
	})
}

func workloadResult(r *experiments.WorkloadAnalysis) (*unitResult, error) {
	return newResult(r, []*dataset.Frame{r.Analysis.Frame}, math.NaN(), func(h io.Writer) {
		printAnalysis(h, r.Analysis)
		fmt.Fprintf(h, "%v\n", r.Bottlenecks)
	})
}

// printAnalysis writes an analysis's value fields. fmt prints float64 in
// the shortest form that parses back to the same bits, so the digest of
// this text changes whenever any number changes.
func printAnalysis(w io.Writer, a *core.Analysis) {
	fmt.Fprintf(w, "%v %v %v %v %v %v\n", a.Predictors, a.Importance, a.OOBMSE, a.VarExplained, a.TestMSE, a.TestR2)
}

type renderer interface{ Render(io.Writer) error }

func newResult(r renderer, frames []*dataset.Frame, medape float64, numbers func(io.Writer)) (*unitResult, error) {
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		return nil, err
	}
	h := sha256.New()
	numbers(h)
	fmt.Fprintf(&buf, "\nnumbers %x\n", h.Sum(nil))

	ph := sha256.New()
	rows := 0
	for _, f := range frames {
		writeFrame(ph, f)
		rows += f.NumRows()
	}
	if !math.IsNaN(medape) {
		writeBits(ph, medape)
	}
	return &unitResult{render: buf.Bytes(), pin: hex.EncodeToString(ph.Sum(nil))[:16], rows: rows, medape: medape}, nil
}

// writeFrame hashes a frame's column names and the Float64bits of every
// cell.
func writeFrame(h hash.Hash, f *dataset.Frame) {
	for _, name := range f.Names() {
		io.WriteString(h, name)
		for _, v := range f.MustColumn(name) {
			writeBits(h, v)
		}
	}
}

func writeBits(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// medAPE is the median absolute percentage error of an evaluation — the
// per-run error distribution's median, not its mean.
func medAPE(ev *core.Evaluation) float64 {
	apes := make([]float64, len(ev.Actual))
	for i, actual := range ev.Actual {
		apes[i] = 100 * math.Abs(ev.Predicted[i]-actual) / math.Abs(actual)
	}
	return median(apes)
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = sorted(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = sorted(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func sorted(xs []float64) []float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	return xs
}
