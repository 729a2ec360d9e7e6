package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"grover/internal/apps"
	"grover/internal/device"
	"grover/internal/harness"
	"grover/internal/service"
	"grover/internal/telemetry"
	"grover/opencl"
)

// sample is one performed op: its kind, how long it took and why it
// failed, if it did.
type sample struct {
	kind string
	ms   float64
	err  error
}

// traceOut is what a traced pass hands back besides the spans: the kind
// and failure of each replayed op by op id, and the ops it also performed
// for real, next to their replay, so the two can be compared.
type traceOut struct {
	kinds []string
	errs  []error
	real  []sample
}

// workload is one fixed op list.
type workload interface {
	// setUp builds everything the passes run against and performs the
	// warm-up mini-pass. It may be called again; the previous state is
	// dropped.
	setUp(rng *rand.Rand) error
	// pass performs the op list once for real, in an order drawn from rng,
	// and brackets the part that is the system's work with m.
	pass(rng *rand.Rand, m *meter) []sample
	// trace replays the op list once through the layers.
	trace(rng *rand.Rand, t *tracer) (traceOut, error)
	close()
}

// workloadInfo names a workload and builds it; smoke cuts its op list down
// to one cheap op per kind. Why each exists is in BENCHMARK.json and README.
type workloadInfo struct {
	name string
	new  func(g *goldenFile, smoke bool) workload
}

var workloads = []workloadInfo{
	{"sweep-cpu", func(g *goldenFile, smoke bool) workload { return newSweep(g, allApps, cpuDevices, smoke) }},
	{"sweep-gpu", func(g *goldenFile, smoke bool) workload { return newSweep(g, gpuApps, gpuDevices, smoke) }},
	{"tune-all", func(g *goldenFile, smoke bool) workload {
		return &tuneWorkload{g: g, apps: cut(smoke, tuneApps), warm: idSet(cut(smoke, tuneWarmApps))}
	}},
	{"serve-frontend", func(g *goldenFile, smoke bool) workload {
		w := &frontendWorkload{g: g, apps: cut(smoke, allApps), scale: mixScale}
		if smoke {
			w.scale = 0
		}
		return w
	}},
}

var (
	cpuDevices = []string{"SNB", "Nehalem", "MIC"}
	gpuDevices = []string{"Fermi", "Kepler", "Tahiti"}

	allApps = []string{"AMD-SS", "AMD-MT", "NVD-MT", "AMD-RG", "AMD-MM", "NVD-MM-A",
		"NVD-MM-B", "NVD-MM-AB", "NVD-NBody", "PAB-ST", "ROD-SC"}
	// gpuApps drops NVD-MM-A and NVD-MM-B: the same kernel as NVD-MM-AB
	// with a narrower candidate list, and they stay in sweep-cpu.
	gpuApps = []string{"AMD-SS", "AMD-MT", "NVD-MT", "AMD-RG", "AMD-MM",
		"NVD-MM-AB", "NVD-NBody", "PAB-ST", "ROD-SC"}
	// tuneApps is ISSUE 11's list without NVD-MM-AB, whose all-device plan
	// search alone takes as long as a whole run may (see README).
	tuneApps = []string{"AMD-SS", "AMD-MT", "NVD-MT", "AMD-RG", "AMD-MM", "PAB-ST", "ROD-SC"}
	// warmApps is the warm-up mini-pass: the cheap kernels, once per device.
	warmApps = []string{"AMD-MT", "NVD-MT", "AMD-RG", "PAB-ST"}
	// tuneWarmApps leaves PAB-ST out: its plan search costs more than the
	// other three together and set-up is repeated.
	tuneWarmApps = []string{"AMD-MT", "NVD-MT", "AMD-RG"}
	// probeApps is the fixed probe set for the engine rows and the oracle.
	probeApps = []string{"NVD-MT", "AMD-MM", "PAB-ST", "ROD-SC"}
	// lightApps have an autotune entry in serve-frontend's warm pool; a
	// cache hit costs the same whatever the kernel, and filling the pool
	// with the matmuls would dominate set-up.
	lightApps = []string{"AMD-SS", "AMD-MT", "NVD-MT", "AMD-RG", "PAB-ST", "ROD-SC"}
)

// cut keeps, for a smoke run, only the cheapest app of any list.
func cut(smoke bool, ids []string) []string {
	if smoke {
		return []string{"AMD-MT"}
	}
	return ids
}

func idSet(ids []string) map[string]bool {
	set := make(map[string]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

func workloadByName(name string) *workloadInfo {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func appsByID(ids []string) []*apps.App {
	out := make([]*apps.App, len(ids))
	for i, id := range ids {
		a, err := apps.ByID(id)
		if err != nil {
			panic(err) // the id lists above are fixed
		}
		out[i] = a
	}
	return out
}

// ---------------------------------------------------------------- sweeps

type cell struct {
	app *apps.App
	dev string
}

func (c cell) kind() string { return cellKey(c.app.ID, c.dev) }

// sweepWorkload runs cold (app, device) cells through harness.RunCase:
// compile, Grover pass, both versions checked against the host reference,
// two simulated launches, the np verdict.
type sweepWorkload struct {
	g     *goldenFile
	cells []cell
	// warm, by app id, is the warm-up mini-pass; the traced pass performs
	// the same cells for real next to their replay.
	warm   map[string]bool
	probes []*apps.App
	// probeDev is the device the engine rows are taken on: the first of
	// the sweep's devices (SNB, Fermi).
	probeDev string
}

func newSweep(g *goldenFile, appIDs, devices []string, smoke bool) *sweepWorkload {
	w := &sweepWorkload{g: g, probeDev: devices[0],
		warm: idSet(cut(smoke, warmApps)), probes: appsByID(cut(smoke, probeApps))}
	if smoke {
		devices = devices[:1]
	}
	for _, a := range appsByID(cut(smoke, appIDs)) {
		for _, d := range devices {
			w.cells = append(w.cells, cell{a, d})
		}
	}
	return w
}

func (w *sweepWorkload) close() {}

func (w *sweepWorkload) setUp(rng *rand.Rand) error {
	for _, c := range w.cells {
		if !w.warm[c.app.ID] {
			continue
		}
		if s := w.runCell(c); s.err != nil {
			return fmt.Errorf("warm-up %s: %w", s.kind, s.err)
		}
	}
	return nil
}

func shuffled[T any](rng *rand.Rand, in []T) []T {
	out := append([]T(nil), in...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (w *sweepWorkload) pass(rng *rand.Rand, m *meter) []sample {
	cells := shuffled(rng, w.cells)
	out := make([]sample, len(cells))
	m.start()
	for i, c := range cells {
		out[i] = w.runCell(c)
	}
	m.stop()
	return out
}

func (w *sweepWorkload) runCell(c cell) sample {
	start := time.Now()
	m, err := harness.RunCase(c.app, c.dev, harness.Config{Backend: backend, Validate: true})
	s := sample{kind: c.kind(), ms: msSince(start), err: err}
	if err == nil {
		s.err = w.g.checkCell(c.app.ID, c.dev, cellResult{
			withLM:    launchStats{TimeMS: m.WithLM},
			withoutLM: launchStats{TimeMS: m.WithoutLM},
			verdict:   m.Classify().String(),
			applied:   appliedCandidates(m.Report),
		}, false)
	}
	return s
}

func (w *sweepWorkload) trace(rng *rand.Rand, t *tracer) (traceOut, error) {
	var out traceOut
	for i, c := range shuffled(rng, w.cells) {
		if w.warm[c.app.ID] {
			out.real = append(out.real, w.runCell(c))
		}
		res, err := t.replayCell(i+1, c.app, c.dev)
		if err == nil {
			err = w.g.checkCell(c.app.ID, c.dev, res, true)
		}
		out.kinds = append(out.kinds, c.kind())
		out.errs = append(out.errs, err)
	}
	return out, t.probeEngines(w.probes, w.probeDev)
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// ---------------------------------------------------------------- service plumbing

// kernelSpec is one app as a client of the service describes it: source,
// launch geometry and argument specs, all derived from app.Setup(ctx, 1).
type kernelSpec struct {
	app           *apps.App
	global, local [3]int
	args          []service.ArgSpec
}

// argSpecs expresses host-side kernel arguments as wire arg specs. Every
// argument type opencl.VMArgs accepts must be expressible; a miss is an
// error, never a silent skip.
func argSpecs(args []interface{}) ([]service.ArgSpec, error) {
	out := make([]service.ArgSpec, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case *opencl.Buffer:
			out[i] = service.ArgSpec{Kind: "buffer", Size: v.Size()}
		case opencl.LocalMem:
			out[i] = service.ArgSpec{Kind: "local", Size: v.Size}
		case int:
			out[i] = service.ArgSpec{Kind: "int", Int: int64(v)}
		case int32:
			out[i] = service.ArgSpec{Kind: "int", Int: int64(v)}
		case int64:
			out[i] = service.ArgSpec{Kind: "int", Int: v}
		case uint32:
			out[i] = service.ArgSpec{Kind: "int", Int: int64(v)}
		case float32:
			out[i] = service.ArgSpec{Kind: "float", Float: float64(v)}
		case float64:
			out[i] = service.ArgSpec{Kind: "float", Float: v}
		default:
			return nil, fmt.Errorf("argument %d of type %T has no wire form", i, a)
		}
	}
	return out, nil
}

func specFor(app *apps.App) (*kernelSpec, error) {
	ctx := opencl.NewContext(opencl.NewPlatform().Devices()[0])
	inst, err := app.Setup(ctx, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", app.ID, err)
	}
	args, err := argSpecs(inst.Args)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", app.ID, err)
	}
	return &kernelSpec{app: app, global: inst.ND.Global, local: inst.ND.Local, args: args}, nil
}

func specsFor(ids []string) ([]*kernelSpec, error) {
	out := make([]*kernelSpec, len(ids))
	for i, a := range appsByID(ids) {
		var err error
		if out[i], err = specFor(a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// defines returns the app's defines plus, for a cold request, an unused
// UNIQ macro that makes the content address new.
func (k *kernelSpec) defines(uniq int64) map[string]string {
	if uniq == 0 {
		return k.app.Defines
	}
	out := map[string]string{"UNIQ": strconv.FormatInt(uniq, 10)}
	for name, v := range k.app.Defines {
		out[name] = v
	}
	return out
}

// uniq draws a cache-busting value from the seed's stream (never 0).
func uniq(rng *rand.Rand) int64 { return rng.Int63n(1<<62) + 1 }

func newServer() *service.Server {
	return service.New(service.Config{Workers: runtime.GOMAXPROCS(0), Backend: backend})
}

func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always encode
	}
	return b
}

// call sends one wire request to the in-process server.
func call(srv http.Handler, method, path string, body []byte) (int, []byte, float64) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(rec, req)
	ms := msSince(start)
	return rec.Code, rec.Body.Bytes(), ms
}

func decodeOK(code int, body []byte, v interface{}) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// ---------------------------------------------------------------- tune-all

// tuneWorkload sends cold all-device plan-search autotune requests, one
// client, closed loop; each request already fans out six device
// goroutines inside the server.
type tuneWorkload struct {
	g       *goldenFile
	apps    []string
	warm    map[string]bool // by app id: the warm-up mini-pass
	kernels []*kernelSpec
	srv     *service.Server
	spans   spanCoverage
}

// spanCoverage accumulates the server's own top-level response spans and
// the wire latency of the same responses, for telemetry.span_coverage.
type spanCoverage struct{ spanMS, latencyMS float64 }

func (c *spanCoverage) add(spans []telemetry.SpanJSON, latencyMS float64) {
	if len(spans) == 0 {
		return // cached answers carry no spans
	}
	for _, s := range spans {
		if s.ParentID == 0 {
			c.spanMS += s.DurMS
		}
	}
	c.latencyMS += latencyMS
}

func (c *spanCoverage) report(t *tracer) {
	t.add("telemetry.span_coverage", ratio(c.spanMS, c.latencyMS))
}

func (w *tuneWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

func (w *tuneWorkload) setUp(rng *rand.Rand) error {
	w.close()
	var err error
	if w.kernels, err = specsFor(w.apps); err != nil {
		return err
	}
	w.srv = newServer()
	for _, k := range w.kernels {
		if !w.warm[k.app.ID] {
			continue
		}
		if s := w.request(k, uniq(rng)); s.err != nil {
			return fmt.Errorf("warm-up %s: %w", s.kind, s.err)
		}
	}
	return nil
}

func (w *tuneWorkload) pass(rng *rand.Rand, m *meter) []sample {
	ks := shuffled(rng, w.kernels)
	out := make([]sample, len(ks))
	m.start()
	for i, k := range ks {
		out[i] = w.request(k, uniq(rng))
	}
	m.stop()
	return out
}

func tuneBody(k *kernelSpec, u int64) []byte {
	return mustJSON(&service.AutotuneRequest{
		Name: k.app.ID + ".cl", Source: k.app.Source, Defines: k.defines(u), Kernel: k.app.Kernel,
		Device: "all", Plan: "search", Global: k.global, Local: k.local, Args: k.args,
	})
}

func (w *tuneWorkload) request(k *kernelSpec, u int64) sample {
	code, body, ms := call(w.srv, "POST", "/v1/autotune", tuneBody(k, u))
	s := sample{kind: k.app.ID, ms: ms}
	var resp service.AutotuneResponse
	if s.err = decodeOK(code, body, &resp); s.err != nil {
		return s
	}
	w.spans.add(resp.Spans, ms)
	if len(resp.Results) != len(device.All()) {
		s.err = fmt.Errorf("%d device results, want %d", len(resp.Results), len(device.All()))
		return s
	}
	for _, r := range resp.Results {
		if r.Error != "" {
			s.err = fmt.Errorf("%s: %s", r.Device, r.Error)
			return s
		}
		if s.err = w.g.checkTune(k.app.ID, r.Device, tuneResultOf(r)); s.err != nil {
			return s
		}
	}
	return s
}

func tuneResultOf(r service.TuneVerdict) tuneResult {
	out := tuneResult{Winner: r.Plan, BestMS: r.TransformedMS}
	for _, p := range r.Plans {
		out.Plans = append(out.Plans, planResult{Plan: p.Plan, Applied: p.Applied, MS: p.MS})
	}
	return out
}

func (w *tuneWorkload) trace(rng *rand.Rand, t *tracer) (traceOut, error) {
	var out traceOut
	for i, k := range shuffled(rng, w.kernels) {
		if w.warm[k.app.ID] {
			out.real = append(out.real, w.request(k, uniq(rng)))
		}
		res, err := t.replayTune(i+1, k, k.defines(uniq(rng)))
		for _, dev := range sortedKeys(res) {
			if err == nil {
				err = w.g.checkTune(k.app.ID, dev, res[dev])
			}
		}
		out.kinds = append(out.kinds, k.app.ID)
		out.errs = append(out.errs, err)
	}
	t.probeCacheHit()
	w.spans.report(t)
	return out, scrape(w.srv, t)
}

// ---------------------------------------------------------------- serve-frontend

// frontendPlan is the rewrite plan half of the transform requests carry.
const frontendPlan = "grover,hoist-addr"

// mixScale multiplies the per-app request counts below; one pass is 442
// requests per unit. Scale 0 (smoke) sends one request of each kind.
const mixScale = 4

// frontendMix is the per-app request count of each endpoint at scale 1,
// sent once cold and once warm: compile 30 %, lint 20 %, transform 30 %
// (half classic options, half frontendPlan). Autotune hits make up the
// remaining 20 %.
var frontendMix = []struct {
	endpoint string
	n        int
}{{"compile", 6}, {"lint", 4}, {"transform", 3}, {"transform-plan", 3}}

// autotuneHits is the per-light-app count of autotune cache hits at scale 1.
const autotuneHits = 15

type feRequest struct {
	kind     string
	endpoint string
	k        *kernelSpec
	path     string
	body     []byte
}

type feResponse struct {
	code int
	body []byte
	ms   float64
}

// frontendWorkload sends compile, lint and transform requests, half cold
// (fresh UNIQ) and half from a warm pool, plus single-device autotune
// cache hits, from GOMAXPROCS closed-loop clients. The cache keeps its
// default capacity, so cold keys churn the LRU under the warm pool.
type frontendWorkload struct {
	g     *goldenFile
	apps  []string
	scale int
	specs []*kernelSpec
	srv   *service.Server
	// peak is the most requests in flight at once, seen from the wire.
	peak  int64
	spans spanCoverage
}

func (w *frontendWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

func autotuneDevice(k *kernelSpec) string {
	for i, id := range lightApps {
		if id == k.app.ID {
			return device.All()[i%len(device.All())].Name
		}
	}
	return ""
}

// frontendRequest builds one wire request; u != 0 makes its key new.
func frontendRequest(endpoint string, k *kernelSpec, u int64, temp string) feRequest {
	r := feRequest{endpoint: endpoint, k: k, kind: endpoint + "/" + k.app.ID + "/" + temp}
	name, defs := k.app.ID+".cl", k.defines(u)
	switch endpoint {
	case "compile":
		r.path = "/v1/compile"
		r.body = mustJSON(&service.CompileRequest{Name: name, Source: k.app.Source, Defines: defs})
	case "lint":
		r.path = "/v1/lint"
		r.body = mustJSON(&service.LintRequest{Name: name, Source: k.app.Source, Defines: defs,
			Kernel: k.app.Kernel, Local: k.local})
	case "transform", "transform-plan":
		r.path = "/v1/transform"
		req := &service.TransformRequest{Name: name, Source: k.app.Source, Defines: defs, Kernel: k.app.Kernel}
		if endpoint == "transform" {
			req.Options = service.OptionsSpec{Candidates: k.app.Candidates, Strict: true}
		} else {
			req.Plan = frontendPlan
		}
		r.body = mustJSON(req)
	case "autotune":
		r.path = "/v1/autotune"
		r.body = mustJSON(&service.AutotuneRequest{Name: name, Source: k.app.Source, Defines: defs,
			Kernel: k.app.Kernel, Options: service.OptionsSpec{Candidates: k.app.Candidates},
			Device: autotuneDevice(k), Global: k.global, Local: k.local, Args: k.args})
	}
	return r
}

// setUp builds the server and fills the warm pool; the fill is the
// warm-up mini-pass, every request of it cold.
func (w *frontendWorkload) setUp(rng *rand.Rand) error {
	w.close()
	var err error
	if w.specs, err = specsFor(w.apps); err != nil {
		return err
	}
	w.srv = newServer()
	var reqs []feRequest
	for _, k := range w.specs {
		for _, m := range frontendMix {
			reqs = append(reqs, frontendRequest(m.endpoint, k, 0, "cold"))
		}
		if autotuneDevice(k) != "" {
			reqs = append(reqs, frontendRequest("autotune", k, 0, "cold"))
		}
	}
	for _, s := range w.validate(reqs, w.drive(reqs, 1)) {
		if s.err != nil {
			return fmt.Errorf("warm pool %s: %w", s.kind, s.err)
		}
	}
	return nil
}

// requests builds one pass's request list in seeded order.
func (w *frontendWorkload) requests(rng *rand.Rand) []feRequest {
	var reqs []feRequest
	times := func(n int) int {
		if w.scale == 0 {
			return 1
		}
		return n * w.scale
	}
	for _, k := range w.specs {
		for _, m := range frontendMix {
			warm := frontendRequest(m.endpoint, k, 0, "warm")
			for i := 0; i < times(m.n); i++ {
				reqs = append(reqs, frontendRequest(m.endpoint, k, uniq(rng), "cold"), warm)
			}
		}
		if autotuneDevice(k) != "" {
			hit := frontendRequest("autotune", k, 0, "hit")
			for i := 0; i < times(autotuneHits); i++ {
				reqs = append(reqs, hit)
			}
		}
	}
	return shuffled(rng, reqs)
}

// drive sends reqs from n closed-loop clients that share one cursor.
func (w *frontendWorkload) drive(reqs []feRequest, n int) []feResponse {
	out := make([]feResponse, len(reqs))
	var next, inflight atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				now := inflight.Add(1)
				for {
					peak := atomic.LoadInt64(&w.peak)
					if now <= peak || atomic.CompareAndSwapInt64(&w.peak, peak, now) {
						break
					}
				}
				code, body, ms := call(w.srv, "POST", reqs[i].path, reqs[i].body)
				inflight.Add(-1)
				out[i] = feResponse{code, body, ms}
			}
		}()
	}
	wg.Wait()
	return out
}

// pass times only the driving of the requests: building the bodies before
// and checking the answers after are the load generator's work.
func (w *frontendWorkload) pass(rng *rand.Rand, m *meter) []sample {
	reqs := w.requests(rng)
	m.start()
	resps := w.drive(reqs, runtime.GOMAXPROCS(0))
	m.stop()
	return w.validate(reqs, resps)
}

func (w *frontendWorkload) validate(reqs []feRequest, resps []feResponse) []sample {
	out := make([]sample, len(reqs))
	for i, r := range reqs {
		out[i] = sample{kind: r.kind, ms: resps[i].ms, err: w.check(r, resps[i])}
	}
	return out
}

func (w *frontendWorkload) check(r feRequest, resp feResponse) error {
	want, ok := w.g.Frontend[r.k.app.ID]
	if !ok {
		return fmt.Errorf("no golden front-end entry for %s", r.k.app.ID)
	}
	got, spans, err := frontendAnswer(r.endpoint, resp.code, resp.body)
	if err != nil {
		return err
	}
	w.spans.add(spans, resp.ms)
	return want.compare(r.endpoint, got)
}

// frontendAnswer extracts from one response the fields the golden file
// holds for its endpoint, and the server's own spans when the response
// carries any (cold compiles and transforms).
func frontendAnswer(endpoint string, code int, body []byte) (got frontGolden, spans []telemetry.SpanJSON, err error) {
	switch endpoint {
	case "compile":
		var resp service.CompileResponse
		if err := decodeOK(code, body, &resp); err != nil {
			return got, nil, err
		}
		got.Kernels, spans = resp.Kernels, resp.Spans
	case "lint":
		var resp service.LintResponse
		if err := decodeOK(code, body, &resp); err != nil {
			return got, nil, err
		}
		got.Findings, got.MaxSeverity = len(resp.Findings), resp.MaxSeverity
	case "transform":
		var resp service.TransformResponse
		if err := decodeOK(code, body, &resp); err != nil {
			return got, nil, err
		}
		if resp.Report == nil {
			return got, nil, fmt.Errorf("transform response has no report")
		}
		got.Transformed, spans = resp.Transformed, resp.Spans
		got.Candidates = len(resp.Report.Candidates)
		got.BarriersRemoved = resp.Report.BarriersRemoved
		for _, c := range resp.Report.Candidates {
			if c.Transformed {
				got.Applied++
			}
		}
	case "transform-plan":
		var resp service.TransformResponse
		if err := decodeOK(code, body, &resp); err != nil {
			return got, nil, err
		}
		if resp.Rewrite == nil {
			return got, nil, fmt.Errorf("plan transform response has no rewrite report")
		}
		for _, s := range resp.Rewrite.Steps {
			got.PlanSteps = append(got.PlanSteps, s.Applied)
		}
		spans = resp.Spans
	case "autotune":
		var resp service.AutotuneResponse
		if err := decodeOK(code, body, &resp); err != nil {
			return got, nil, err
		}
		if len(resp.Results) != 1 || resp.Results[0].Error != "" {
			return got, nil, fmt.Errorf("autotune: want one clean verdict, got %+v", resp.Results)
		}
		r := resp.Results[0]
		got.Autotune = &autotuneGolden{Device: r.Device, UseTransformed: r.UseTransformed,
			OriginalMS: r.OriginalMS, TransformedMS: r.TransformedMS}
	}
	return got, spans, nil
}

// merge copies into g the fields that endpoint fills.
func (g *frontGolden) merge(endpoint string, from frontGolden) {
	switch endpoint {
	case "compile":
		g.Kernels = from.Kernels
	case "lint":
		g.Findings, g.MaxSeverity = from.Findings, from.MaxSeverity
	case "transform":
		g.Transformed, g.Candidates, g.Applied, g.BarriersRemoved =
			from.Transformed, from.Candidates, from.Applied, from.BarriersRemoved
	case "transform-plan":
		g.PlanSteps = from.PlanSteps
	case "autotune":
		g.Autotune = from.Autotune
	}
}

// compare checks the fields of got that endpoint fills against g.
func (g frontGolden) compare(endpoint string, got frontGolden) error {
	var want frontGolden
	want.merge(endpoint, g)
	if digest(want) != digest(got) {
		return fmt.Errorf("%s answered %s, want %s", endpoint, mustJSON(got), mustJSON(want))
	}
	return nil
}

func (w *frontendWorkload) trace(rng *rand.Rand, t *tracer) (traceOut, error) {
	var out traceOut
	// Real traffic first: the wire-side service.* rows and the cold
	// latencies the replays are compared with.
	passes := 3
	if w.scale == 0 {
		passes = 1
	}
	for i := 0; i < passes; i++ {
		out.real = append(out.real, w.pass(rng, &meter{})...)
	}
	byEndpoint := map[string][]float64{}
	var hits []float64
	for _, s := range out.real {
		ep, _, temp := splitKind(s.kind)
		if ep == "transform-plan" {
			ep = "transform"
		}
		byEndpoint[ep] = append(byEndpoint[ep], s.ms)
		if temp != "cold" {
			hits = append(hits, s.ms)
		}
	}
	for _, ep := range []string{"compile", "lint", "transform", "autotune"} {
		t.add("service."+ep+"_p50_ms", percentile(byEndpoint[ep], 50))
		t.add("service."+ep+"_p95_ms", percentile(byEndpoint[ep], 95))
	}
	t.add("service.hit_p50_ms", percentile(hits, 50))
	t.add("service.max_inflight", float64(atomic.LoadInt64(&w.peak)))

	// Then each cold kind layer by layer, three times: the first replay of
	// a kind pays for cold code paths the real median does not.
	for rep := 0; rep < 3; rep++ {
		for _, k := range w.specs {
			for _, m := range frontendMix {
				err := t.replayFrontend(len(out.kinds)+1, m.endpoint, k, k.defines(uniq(rng)))
				out.kinds = append(out.kinds, m.endpoint+"/"+k.app.ID+"/cold")
				out.errs = append(out.errs, err)
			}
		}
	}
	t.probeCacheHit()
	w.spans.report(t)
	return out, scrape(w.srv, t)
}

// splitKind takes a serve-frontend op kind apart.
func splitKind(kind string) (endpoint, app, temp string) {
	parts := strings.Split(kind, "/")
	if len(parts) != 3 {
		return kind, "", ""
	}
	return parts[0], parts[1], parts[2]
}
