package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"blackforest/internal/core"
	"blackforest/internal/experiments"
	"blackforest/internal/loadgen"
	"blackforest/internal/obs"
	"blackforest/internal/serve"
)

// serveSizing sizes the serving workloads. The traffic's shape is
// synthetic; README.md says where each number comes from.
type serveSizing struct {
	// keys is the number of distinct rows single-row requests draw from,
	// more than the server's 1024-entry LRU holds.
	keys int
	// fixedRate is the open-loop rate of single-row requests p50_ms and
	// p90_ms are measured at.
	fixedRate float64
	// limitMS is the p90 latency a closed-loop window must meet to count
	// towards slo_rps.
	limitMS float64
	// batchRows is the number of fresh rows per batch request, and
	// batchRate the open-loop rate of batch requests.
	batchRows int
	batchRate float64
}

// windows is the number of consecutive windows a measured phase is cut
// into. Its latency quantiles and throughput are the median over the
// windows, so a host stall that hits one window is outvoted.
const windows = 5

// laneClient is the first trace lane of the load generator's connections.
const laneClient = 200

// zipfS skews single-row keys: a few keys are hot, most are cold. With
// 8192 keys the default 1024-entry LRU then answers about 80% of requests.
const zipfS = 1.1

// server is bfserve, with default settings, serving one model on a
// loopback listener.
type server struct {
	url    string
	client *http.Client
	stop   func() error
	pace   *pacer
	// paceErr is the first pacing failure; the workload then fails.
	paceErr error
}

// startServer serves the model on 127.0.0.1 with bfserve's defaults: LRU
// of 1024 entries, coalescing off, batch workers = CPUs.
func startServer(scaler *core.ProblemScaler) (*server, error) {
	srv, err := serve.New(serve.Config{Scaler: scaler})
	if err != nil {
		return nil, err
	}
	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pace.f.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	tr := &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs, DisableCompression: true}
	s := &server{
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		pace:   pace,
	}
	s.stop = func() error {
		tr.CloseIdleConnections()
		cancel()
		err := <-done
		pace.f.Close()
		return err
	}
	return s, nil
}

// servedModel is the model the serving workloads serve, with the errors it
// was measured to have when it was trained.
type servedModel struct {
	scaler          *core.ProblemScaler
	medape, medapeH float64
	render          []byte
}

// trainModel fits the served model: reduce6 problem scaling on the GTX580
// sweep, plus its GTX580→K20m hardware-scaling error.
func trainModel(size sizing) (*servedModel, error) {
	p, err := newPipeline(size, "", nil)
	if err != nil {
		return nil, err
	}
	runs := experiments.ReductionSweep(6, p.o)
	r, err := p.fitProblemScaling("reduce6", runs, core.AutoModel)
	if err != nil {
		return nil, err
	}
	pr, err := problemResult(r)
	if err != nil {
		return nil, err
	}
	hw, err := p.hardwareScaling("reduce6", runs, experiments.ReductionSweep(6, p.o))
	if err != nil {
		return nil, err
	}
	return &servedModel{scaler: r.Scaler, medape: pr.medape, medapeH: hw.medape, render: append(pr.render, hw.render...)}, nil
}

// setUpServer trains the model size.setups times, checks every training
// produced the same model, and starts serving the last one. setup_s is the
// median time of one training plus server start.
func setUpServer(s settings, out *outcome) (*server, *servedModel, error) {
	var times []float64
	var m *servedModel
	var srv *server
	for i := 0; i < s.size.setups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, nil, err
			}
		}
		// Drop the previous training's garbage and return it to the
		// system, so the peak resident set is one training's, not however
		// many the collector let pile up.
		debug.FreeOSMemory()
		t0 := time.Now()
		next, err := trainModel(s.size)
		if err != nil {
			return nil, nil, fmt.Errorf("training the served model: %w", err)
		}
		if srv, err = startServer(next.scaler); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if m != nil {
			out.check(bytes.Equal(m.render, next.render), "two trainings of the served model differ")
		}
		m = next
	}
	fmt.Fprintf(os.Stderr, "set-up: peak resident set %.1f MB\n", peakRSSMB())
	out.values["setup_s"] = median(times)
	out.values["medape_pct.problem"] = m.medape
	out.values["medape_pct.hw"] = m.medapeH
	return srv, m, nil
}

// request is one predict request of a phase.
type request struct {
	body []byte
	rows int
	// verify checks the response body's predictions bit for bit.
	verify func(body []byte) bool
}

// phase is one load-generation phase's record.
type phase struct {
	name                 string
	rate                 float64 // open-loop rate; 0 for a closed loop
	sent, ok, failed     int
	rows                 int
	latMS, svcMS, lateMS []float64 // successful requests only, in due order
	doneS                []float64 // closed loop: completion times since the start
	wall                 time.Duration
}

func (ph *phase) String() string {
	return fmt.Sprintf("%s: rate %.0f/s sent %d ok %d failed %d p50 %.3f ms p90 %.3f ms (window median %.3f) late p99 %.3f ms in %.2fs",
		ph.name, ph.rate, ph.sent, ph.ok, ph.failed, quantile(ph.latMS, 0.5), quantile(ph.latMS, 0.9),
		windowQuantile(ph.latMS, 0.9), quantile(ph.lateMS, 0.99), ph.wall.Seconds())
}

// send posts one request and returns the body of a 200 answer; ok is false
// when the request failed. The caller stops its clock before it verifies
// the body, so a request's latency ends when its answer has arrived and
// does not include the load generator's own decoding.
func (s *server) send(req *request) (body []byte, ok bool) {
	resp, err := s.client.Post(s.url+"/v1/predict", "application/json", bytes.NewReader(req.body))
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return body, err == nil && resp.StatusCode == http.StatusOK
}

// predictions decodes a response body's predictions.
func predictions(body []byte) ([]serve.Prediction, bool) {
	var pr serve.PredictResponse
	if json.Unmarshal(body, &pr) != nil {
		return nil, false
	}
	return pr.Predictions, true
}

// openLoop sends n requests at a fixed rate over procs connections, one
// process. Request i is due at start + i/rate whether or not earlier ones
// have finished; its latency runs from its due time, so a stall delays
// every request behind it, and lateMS records how late each was sent. One
// pacer releases requests at their due times to whichever connection is
// free.
func (s *server) openLoop(name string, rate float64, n int, next func(i int) *request, tr *obs.Tracer) *phase {
	ph := &phase{name: name, rate: rate}
	type rec struct {
		ok             bool
		rows           int
		lat, svc, late float64
	}
	recs := make([]rec, n)
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * 1e9)) }
	type job struct {
		i   int
		req *request
	}
	release := make(chan job)
	var wg sync.WaitGroup
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for j := range release {
				t0 := time.Now()
				sp := tr.Begin(lane, "POST /v1/predict")
				body, ok := s.send(j.req)
				sp.End()
				done := time.Now()
				ok = ok && j.req.verify(body)
				d := due(j.i)
				recs[j.i] = rec{ok: ok, rows: j.req.rows, lat: ms(done.Sub(d)), svc: ms(done.Sub(t0)), late: ms(t0.Sub(d))}
			}
		}(laneClient + c)
	}
	for i := 0; i < n; i++ {
		req := next(i) // built before its due time, so building it is never late
		if err := s.pace.sleepUntil(due(i)); err != nil && s.paceErr == nil {
			s.paceErr = err // fails the run; the rest of the phase is sent unpaced
		}
		release <- job{i, req}
	}
	close(release)
	wg.Wait()
	ph.wall = time.Since(start)
	for _, r := range recs {
		ph.add(r.ok, r.rows, r.lat, r.svc, r.late)
	}
	return ph
}

// pacer sleeps until a due time by reading a timerfd through the
// runtime's network poller. The runtime's own timers fire up to a
// millisecond late, which at these rates would be most of a request's
// latency. A busy wait takes a processor from the server. A nanosleep
// keeps its processor for the whole sleep, so a goroutine readied onto it,
// such as the handler of a cache miss, waits about a millisecond for the
// runtime to take it back. A timerfd read parks the goroutine, leaving its
// processor free, and the kernel's high-resolution timer wakes it within
// tens of microseconds.
type pacer struct {
	fd uintptr
	f  *os.File
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil returns at t, at once if t has passed.
func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(d.Nanoseconds())} // one expiry, no interval
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expiries [8]byte
	_, err := p.f.Read(expiries[:])
	return err
}

// closedLoop keeps procs clients sending back to back for d.
func (s *server) closedLoop(name string, d time.Duration, next func(i int) *request, tr *obs.Tracer) *phase {
	ph := &phase{name: name}
	var mu sync.Mutex
	var idx atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req := next(int(idx.Add(1)) - 1)
				t0 := time.Now()
				sp := tr.Begin(lane, "POST /v1/predict")
				body, ok := s.send(req)
				sp.End()
				done := time.Now()
				ok = ok && req.verify(body)
				lat := ms(done.Sub(t0))
				mu.Lock()
				ph.add(ok, req.rows, lat, lat, 0)
				if ok {
					ph.doneS = append(ph.doneS, done.Sub(start).Seconds())
				}
				mu.Unlock()
			}
		}(laneClient + c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

func (ph *phase) add(ok bool, rows int, lat, svc, late float64) {
	ph.sent++
	if !ok {
		ph.failed++
		return
	}
	ph.ok++
	ph.rows += rows
	ph.latMS = append(ph.latMS, lat)
	ph.svcMS = append(ph.svcMS, svc)
	ph.lateMS = append(ph.lateMS, late)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// windowQuantiles cuts xs into windows consecutive slices and returns
// each slice's q-quantile.
func windowQuantiles(xs []float64, q float64) []float64 {
	var per []float64
	for w := 0; w < windows; w++ {
		if part := xs[w*len(xs)/windows : (w+1)*len(xs)/windows]; len(part) > 0 {
			per = append(per, quantile(part, q))
		}
	}
	return per
}

// windowQuantile is the median of xs's window quantiles.
func windowQuantile(xs []float64, q float64) float64 {
	return median(windowQuantiles(xs, q))
}

// windowRates cuts the first d of a closed-loop phase into windows equal
// stretches and returns each one's completed requests per second and the
// p90 latency of the requests completed in it. A window that completed
// nothing has a p90 of +Inf.
func (ph *phase) windowRates(d time.Duration) (rates, p90s []float64) {
	w := d.Seconds() / windows
	lat := make([][]float64, windows)
	for j, t := range ph.doneS {
		if i := int(t / w); i < windows {
			lat[i] = append(lat[i], ph.latMS[j])
		}
	}
	for _, l := range lat {
		rates = append(rates, float64(len(l))/w)
		p90s = append(p90s, math.Inf(1))
		if len(l) > 0 {
			p90s[len(p90s)-1] = quantile(l, 0.9)
		}
	}
	return rates, p90s
}

// closedRates are the closed-loop segments' window rates, as
// windowRates gives them, and the same rates with every window that missed
// the latency limit, or lies in a segment where a request failed, counted
// as 0.
func (sc *schedule) closedRates(d time.Duration, limitMS float64) (all, held []float64) {
	for _, ph := range sc.closed {
		rates, p90s := ph.windowRates(d)
		for i, r := range rates {
			all = append(all, r)
			if ph.failed > 0 || p90s[i] > limitMS {
				r = 0
			}
			held = append(held, r)
		}
	}
	return all, held
}

// rowDigest hashes one prediction's bits: the time and every counter, in
// name order.
func rowDigest(t float64, counters map[string]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	put(t)
	names := make([]string, 0, len(counters))
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		io.WriteString(h, n)
		put(counters[n])
	}
	return h.Sum64()
}

// expectRow predicts one row in-process with PredictDetail; served
// predictions must match it bit for bit.
func expectRow(scaler *core.ProblemScaler, row map[string]float64) (uint64, error) {
	t, counters, err := scaler.PredictDetail(row)
	if err != nil {
		return 0, err
	}
	return rowDigest(t, counters), nil
}

func singleBody(row map[string]float64) []byte {
	b, _ := json.Marshal(serve.PredictRequest{Chars: row}) // a map of finite floats always encodes
	return b
}

// sampleRow draws one row from the traffic distributions bfload replays
// (loadgen.DistsFromScaler): each characteristic uniform on [Min, Max],
// then scaled by 1 ± Jitter.
func sampleRow(dists []loadgen.CharDist, rng *rand.Rand) map[string]float64 {
	row := make(map[string]float64, len(dists))
	for _, d := range dists {
		v := d.Min + (d.Max-d.Min)*rng.Float64()
		if d.Jitter > 0 {
			v *= 1 + d.Jitter*(2*rng.Float64()-1)
		}
		row[d.Name] = v
	}
	return row
}

// keySet is serve-single's finite key space: rows drawn from the served
// model's bfload traffic distributions, requested with a Zipf skew from a
// seed-dependent ranking, with each key's expected prediction.
type keySet struct {
	rows   []map[string]float64
	bodies [][]byte
	want   []uint64
	// verified holds, per key, a response body whose predictions matched.
	// The server's answer to a key is deterministic, so a later response
	// byte-identical to it matches too, without being decoded again: the
	// load generator then takes less of the processors the server runs on.
	verified []atomic.Pointer[[]byte]
	pick     func(i int) int
}

func newKeySet(s settings, scaler *core.ProblemScaler) (*keySet, error) {
	n := s.size.serve.keys
	dists := loadgen.DistsFromScaler(scaler)
	rng := rand.New(rand.NewPCG(s.seed, 0x5e7))
	ks := &keySet{rows: make([]map[string]float64, n), bodies: make([][]byte, n), want: make([]uint64, n),
		verified: make([]atomic.Pointer[[]byte], n)}
	for k := 0; k < n; k++ {
		row := sampleRow(dists, rng)
		ks.rows[k] = row
		ks.bodies[k] = singleBody(row)
		var err error
		if ks.want[k], err = expectRow(scaler, row); err != nil {
			return nil, err
		}
	}
	rank := rng.Perm(n)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	draws := make([]int, 0, 1<<16)
	var mu sync.Mutex
	// Draw i is a pure function of the seed: draws are generated in index
	// order on first use, whichever connection asks.
	ks.pick = func(i int) int {
		mu.Lock()
		defer mu.Unlock()
		for len(draws) <= i {
			draws = append(draws, rank[zipf.Uint64()])
		}
		return draws[i]
	}
	return ks, nil
}

func (ks *keySet) request(i int) *request {
	k := ks.pick(i)
	return &request{body: ks.bodies[k], rows: 1, verify: func(body []byte) bool {
		if v := ks.verified[k].Load(); v != nil && bytes.Equal(*v, body) {
			return true
		}
		preds, ok := predictions(body)
		if !ok || len(preds) != 1 || rowDigest(preds[0].TimeMS, preds[0].Counters) != ks.want[k] {
			return false
		}
		ks.verified[k].Store(&body)
		return true
	}}
}

// segments is the number of fixed-rate and closed-loop segment pairs a
// serving run alternates through, so a slow stretch of the host a few
// seconds long hits one of them, not all.
const segments = 3

// schedule is one run of a serving workload's phases.
type schedule struct {
	warmUp *phase   // closed loop: fills the LRU and warms the server
	fixed  []*phase // the fixed-rate segments
	closed []*phase // the closed-loop segments
	wall   float64
}

func (sc *schedule) all() []*phase {
	return append(append([]*phase{sc.warmUp}, sc.fixed...), sc.closed...)
}

// fixedQuantile is the median of the fixed-rate segments' window
// q-quantiles.
func (sc *schedule) fixedQuantile(q float64) float64 {
	var per []float64
	for _, ph := range sc.fixed {
		per = append(per, windowQuantiles(ph.latMS, q)...)
	}
	return median(per)
}

// fixedLatencies are the fixed-rate segments' latencies.
func (sc *schedule) fixedLatencies() []float64 {
	var lat []float64
	for _, ph := range sc.fixed {
		lat = append(lat, ph.latMS...)
	}
	return lat
}

// traffic is a serving workload's stream of requests: request(i) builds
// the i-th, and next is the index of the first one not yet sent. A traced
// run continues the untraced run's stream.
type traffic struct {
	request func(i int) *request
	next    int
}

// warmUpShare is the share of a serving run spent warming up.
const warmUpShare = 0.1

// closedFor is the length of one closed-loop segment of a serving run; a
// fixed-rate segment takes as long.
func closedFor(s settings) time.Duration {
	return time.Duration((1 - warmUpShare) * s.seconds / (2 * segments) * 1e9)
}

// runSchedule makes one serving run: a closed-loop warm-up, then segments
// pairs of a fixed-rate open-loop segment at rate and a closed-loop
// segment of procs clients.
func (s *server) runSchedule(st settings, rate float64, tf *traffic, tr *obs.Tracer) *schedule {
	start := time.Now()
	phase := func(ph *phase) *phase {
		fmt.Fprintln(os.Stderr, ph)
		tf.next += ph.sent
		return ph
	}
	from := func() func(int) *request {
		base := tf.next
		return func(i int) *request { return tf.request(base + i) }
	}
	sc := &schedule{warmUp: phase(s.closedLoop("warm-up", time.Duration(warmUpShare*st.seconds*1e9), from(), tr))}
	d := closedFor(st)
	for range segments {
		n := max(int(rate*d.Seconds()), 1)
		sc.fixed = append(sc.fixed, phase(s.openLoop("fixed", rate, n, from(), tr)))
		sc.closed = append(sc.closed, phase(s.closedLoop("closed", d, from(), tr)))
	}
	sc.wall = time.Since(start).Seconds()
	return sc
}

// runServeSingle offers single-row predicts at a fixed rate for p50_ms and
// p90_ms, and from procs closed-loop clients for slo_rps, with the server
// and the load generator on one processor.
func runServeSingle(s settings) (*outcome, error) {
	out := newOutcome()
	srv, m, err := setUpServer(s, out)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	ks, err := newKeySet(s, m.scaler)
	if err != nil {
		return nil, err
	}
	// The load generator and the server then share one processor. With
	// two, the hand-offs between client and handler goroutines across
	// processors settle into modes whose closed-loop throughput differs by
	// a third and which last for seconds; with one, requests run start to
	// finish on one thread and wake it once.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tf := &traffic{request: ks.request}
	run := func(tr *obs.Tracer) *schedule { return srv.runSchedule(s, s.size.serve.fixedRate, tf, tr) }
	reportServe(s, out, run(nil), 1)
	if s.traced {
		if err := traceServe(out, srv, run, func() (float64, float64) {
			rows := make([]map[string]float64, 1024)
			for i := range rows {
				rows[i] = ks.rows[ks.pick(i)]
			}
			return engineUSPerRow(m.scaler, rows, s.size.serve.batchRows)
		}); err != nil {
			return nil, err
		}
	}
	if srv.paceErr != nil {
		return nil, fmt.Errorf("pacing requests: %w", srv.paceErr)
	}
	return out, nil
}

// batchRows draws request i's n fresh rows from the bfload traffic
// distributions. The values are continuous, so no row repeats and every
// row misses the cache.
func batchRows(dists []loadgen.CharDist, seed uint64, i, n int) []map[string]float64 {
	rng := rand.New(rand.NewPCG(seed, uint64(i)+1))
	rows := make([]map[string]float64, n)
	for r := range rows {
		rows[r] = sampleRow(dists, rng)
	}
	return rows
}

// batchGen builds batch requests and verifies their responses after the
// phase: during it, each response's row digests are only recorded.
type batchGen struct {
	dists []loadgen.CharDist
	seed  uint64
	rows  int
	mu    sync.Mutex
	got   map[int][]uint64
}

func (g *batchGen) request(i int) *request {
	body, _ := json.Marshal(serve.PredictRequest{Batch: batchRows(g.dists, g.seed, i, g.rows)}) // finite floats always encode
	return &request{body: body, rows: g.rows, verify: func(body []byte) bool {
		preds, ok := predictions(body)
		if !ok || len(preds) != g.rows {
			return false
		}
		d := make([]uint64, g.rows)
		for r, p := range preds {
			d[r] = rowDigest(p.TimeMS, p.Counters)
		}
		g.mu.Lock()
		g.got[i] = d
		g.mu.Unlock()
		return true
	}}
}

// verify recomputes every recorded response in-process, over procs
// goroutines, and counts each mismatching request as failed.
func (g *batchGen) verify(scaler *core.ProblemScaler, out *outcome) {
	ids := make([]int, 0, len(g.got))
	for i := range g.got {
		ids = append(ids, i)
	}
	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(ids); j += procs {
				i := ids[j]
				for r, row := range batchRows(g.dists, g.seed, i, g.rows) {
					if want, err := expectRow(scaler, row); err != nil || want != g.got[i][r] {
						bad.Add(1)
						break
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// The requests were counted as attempted, and as succeeded, when sent.
	if n := int(bad.Load()); n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %d batch responses differ from in-process PredictDetail\n", n)
		out.failed += n
	}
	g.got = make(map[int][]uint64)
}

// runServeBatch offers batch predicts of fresh rows: at a fixed rate for
// p50_ms and p90_ms, and from procs closed-loop clients for rows_per_s.
func runServeBatch(s settings) (*outcome, error) {
	out := newOutcome()
	srv, m, err := setUpServer(s, out)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	sz := s.size.serve
	g := &batchGen{dists: loadgen.DistsFromScaler(m.scaler), seed: s.seed, rows: sz.batchRows, got: make(map[int][]uint64)}
	tf := &traffic{request: g.request}
	run := func(tr *obs.Tracer) *schedule {
		sc := srv.runSchedule(s, sz.batchRate, tf, tr)
		g.verify(m.scaler, out)
		return sc
	}
	reportServe(s, out, run(nil), sz.batchRows)
	if s.traced {
		if err := traceServe(out, srv, run, func() (float64, float64) {
			return engineUSPerRow(m.scaler, batchRows(g.dists, s.seed, -1, 1024), sz.batchRows)
		}); err != nil {
			return nil, err
		}
	}
	if srv.paceErr != nil {
		return nil, fmt.Errorf("pacing requests: %w", srv.paceErr)
	}
	return out, nil
}

// reportServe sets a serving run's end-to-end metrics. p50_ms and p90_ms
// come from the fixed-rate segments. rows_per_s is the median closed-loop
// window's rate times the rows per request, and slo_rps the median
// closed-loop window's requests per second, counting as 0 a window that
// missed the latency limit or lies in a segment where a request failed.
func reportServe(s settings, out *outcome, sc *schedule, rowsPerRequest int) {
	for _, ph := range sc.all() {
		out.attempted += ph.sent
		out.failed += ph.failed
	}
	all, held := sc.closedRates(closedFor(s), s.size.serve.limitMS)
	out.values["p50_ms"] = sc.fixedQuantile(0.5)
	out.values["p90_ms"] = sc.fixedQuantile(0.9)
	out.values["slo_rps"] = median(held)
	out.values["rows_per_s"] = median(all) * float64(rowsPerRequest)
	out.values["run_s"] = sc.wall
}

// traceServe makes the traced run of a serving workload: the phases again
// with client spans, the server's counters and stage histograms read from
// /metrics before and after, and the engine's per-row cost measured
// in-process.
func traceServe(out *outcome, srv *server, run func(*obs.Tracer) *schedule, engine func() (single, batch float64)) error {
	untracedRun := out.values["run_s"]
	mid, err := srv.scrape()
	if err != nil {
		return err
	}
	tr := obs.NewTracer(nil)
	sc := run(tr)
	after, err := srv.scrape()
	if err != nil {
		return err
	}
	v := out.values
	zeroLayers(v)
	var sent, ok, failed int
	var svc, late []float64
	for _, ph := range sc.all() {
		sent += ph.sent
		ok += ph.ok
		failed += ph.failed
		svc = append(svc, ph.svcMS...)
		if ph.rate > 0 { // a closed loop sends nothing late
			late = append(late, ph.lateMS...)
		}
	}
	out.attempted += sent
	out.failed += failed
	v["loadgen.sent"], v["loadgen.succeeded"], v["loadgen.failed"] = float64(sent), float64(ok), float64(failed)
	v["loadgen.late_ms.p99"] = quantile(late, 0.99)
	v["loadgen.late_ms.max"] = quantile(late, 1)
	v["serve.p99_ms"] = quantile(sc.fixedLatencies(), 0.99)
	v["serve.p99_samples"] = float64(len(sc.fixedLatencies()))

	stage := func(name string) float64 {
		key := `bfserve_stage_duration_seconds_%s{stage="` + name + `"}`
		n := after[fmt.Sprintf(key, "count")] - mid[fmt.Sprintf(key, "count")]
		if n == 0 {
			return 0
		}
		return 1e3 * (after[fmt.Sprintf(key, "sum")] - mid[fmt.Sprintf(key, "sum")]) / n
	}
	var svcSum float64
	for _, x := range svc {
		svcSum += x
	}
	meanSvc := svcSum / float64(max(len(svc), 1))
	v["serve.stage_ms.queue"] = stage("queue")
	v["serve.stage_ms.coalesce_wait"] = stage("coalesce_wait")
	v["serve.stage_ms.inference"] = stage("inference")
	v["serve.unattributed_ms"] = meanSvc - v["serve.stage_ms.queue"] - v["serve.stage_ms.coalesce_wait"] - v["serve.stage_ms.inference"]
	v["share.engine"] = v["serve.stage_ms.inference"] / meanSvc
	hits := after["bfserve_cache_hits_total"] - mid["bfserve_cache_hits_total"]
	misses := after["bfserve_cache_misses_total"] - mid["bfserve_cache_misses_total"]
	if hits+misses > 0 {
		v["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	v["serve.shed"] = after["bfserve_shed_total"] - mid["bfserve_shed_total"]
	v["engine.us_per_row.single"], v["engine.us_per_row.batch"] = engine()
	v["trace.overhead_s"] = sc.wall - untracedRun
	v["trace.spans"] = float64(tr.Len())
	// The generator's request spans cover the phases except the waits for
	// each request's due time.
	var spans [][2]int64
	for _, ev := range tr.Events() {
		spans = append(spans, [2]int64{ev.StartNS, ev.StartNS + ev.DurNS})
	}
	v["trace.uncovered_s"] = sc.wall - float64(unionNS(spans))/1e9
	return nil
}

// engineUSPerRow times the flat inference engine in-process on the given
// rows: PredictDetail one row at a time, and PredictDetailAll in batches.
func engineUSPerRow(scaler *core.ProblemScaler, rows []map[string]float64, batch int) (single, batchUS float64) {
	t0 := time.Now()
	for _, r := range rows {
		scaler.PredictDetail(r) // rows come from the served workload, which verified them
	}
	single = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(rows))
	t0 = time.Now()
	for i := 0; i < len(rows); i += batch {
		scaler.PredictDetailAll(rows[i:min(i+batch, len(rows))])
	}
	batchUS = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(rows))
	return single, batchUS
}

// scrape reads the server's /metrics as series → value.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(m) == 0 {
		return nil, errors.New("/metrics returned no series")
	}
	return m, nil
}
