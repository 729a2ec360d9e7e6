// Command bench is the repository's one performance ledger: four fixed
// workloads through the two entry points users call (harness.RunCase and
// an in-process groverd fed JSON wire requests), six end-to-end metrics
// per workload, every output checked against golden.json, and — in a
// separate traced run — spans recorded around calls into each layer for
// the per-layer numbers. See README.md.
//
//	go run -C bench . --workload sweep-cpu --seed 1 --seconds 12 --trace 0
//	go run -C bench . --workload sweep-cpu --seed 1 --seconds 12 --trace 1
//	go run -C bench . -compare old.jsonl new.jsonl
//	go run -C bench . -update-golden
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// setUps is how often set-up is performed in a run; setup_s is the median.
const setUps = 3

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// ledgerRow is one run as -ledger appends it and -compare reads it.
type ledgerRow struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Host     string `json:"host"`
	result
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "seed for op order and cache-busting values")
		seconds   = flag.Float64("seconds", 12, "how long to measure; whole passes are run while the next one fits, at least one")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		smoke     = flag.Bool("smoke", false, "run one cheap op per kind of a cut-down op list (for tests)")
		ledger    = flag.String("ledger", "", "append this run's result to the named JSON-lines file")
		compare   = flag.Bool("compare", false, "compare two ledger files: -compare old.jsonl new.jsonl")
		benchJSON = flag.String("benchmark-json", filepath.Join("..", "BENCHMARK.json"), "where -compare reads the bounds")
		update    = flag.Bool("update-golden", false, "regenerate golden.json (checks the interpreter oracle first)")
	)
	flag.Parse()
	if err := scrubEnv(); err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two ledger files"))
		}
		if err := compareLedgers(os.Stdout, *benchJSON, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
	case *update:
		if err := updateGolden("golden.json"); err != nil {
			fatal(err)
		}
	default:
		info := workloadByName(*name)
		if info == nil {
			fatal(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
		}
		row, err := run(info, *seed, *seconds, *trace != 0, *smoke)
		if err != nil {
			fatal(err)
		}
		if *ledger != "" {
			if err := appendLedger(*ledger, row); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(row.result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// scrubEnv removes every GROVER_* variable so no engine default, debug
// verification or jit mode leaks into a ledger row. Some are read when
// packages initialise, before main, so the process re-executes itself
// without them.
func scrubEnv() error {
	var clean []string
	found := false
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GROVER_") {
			found = true
			continue
		}
		clean = append(clean, kv)
	}
	if !found {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, clean)
}

// run performs one benchmark run and prints its report; the result line
// is left to the caller.
func run(info *workloadInfo, seed int64, seconds float64, traced, smoke bool) (*ledgerRow, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	w := info.new(g, smoke)
	defer w.close()
	rng := rand.New(rand.NewSource(seed))

	// Set-up, several times; the state of the last one is measured on.
	var setupS []float64
	last := processStart
	for i := 0; i < setUps; i++ {
		if err := w.setUp(rng); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(last).Seconds())
		last = time.Now()
	}

	row := &ledgerRow{Workload: info.name, Seed: seed, Host: fingerprint()}
	row.Metrics = map[string]metricValue{}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", info.name, seed, seconds, traced)
	fmt.Printf("host: %s\n", row.Host)
	var failures []string
	if traced {
		row.Trace = 1
		failures, err = runTraced(w, rng, info.name, row)
		if err != nil {
			return nil, err
		}
	} else {
		failures = runUntraced(w, rng, seconds, median(setupS), row)
	}
	row.Failed = len(failures)
	row.Correct = row.Failed == 0
	fmt.Printf("fail_share %g (%d failed of %d attempted)\n",
		ratio(float64(row.Failed), float64(row.Attempted)), row.Failed, row.Attempted)
	for i, f := range failures {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(failures)-10)
			break
		}
		fmt.Printf("  FAILED %s\n", f)
	}
	fmt.Println("simulated times are unvalidated against hardware; no error figure")
	return row, nil
}

// passStat is one pass of the op list, measured.
type passStat struct {
	meter
	geomeanMS, tailMS, tailPct float64
	ops, kinds                 int
}

// summarize groups a pass's samples by op kind: the geometric mean of the
// kinds' median latencies, the tail of the pooled latencies, and the
// failures.
func summarize(samples []sample) (ps passStat, failures []string) {
	byKind := map[string][]float64{}
	all := make([]float64, 0, len(samples))
	for _, s := range samples {
		byKind[s.kind] = append(byKind[s.kind], s.ms)
		all = append(all, s.ms)
		if s.err != nil {
			failures = append(failures, s.kind+": "+s.err.Error())
		}
	}
	medians := make([]float64, 0, len(byKind))
	for _, k := range sortedKeys(byKind) {
		medians = append(medians, median(byKind[k]))
	}
	ps.geomeanMS = geomean(medians)
	ps.tailMS, ps.tailPct = tail(all)
	ps.ops, ps.kinds = len(samples), len(byKind)
	return ps, failures
}

// runUntraced runs whole passes for as long as the next one is expected to
// fit in the time given, at least one, and reports each metric as the
// median over the passes.
func runUntraced(w workload, rng *rand.Rand, seconds, setupS float64, row *ledgerRow) []string {
	var passes []passStat
	var failures []string
	begin := time.Now()
	for {
		var m meter
		samples := w.pass(rng, &m)
		ps, failed := summarize(samples)
		ps.meter = m
		passes = append(passes, ps)
		failures = append(failures, failed...)
		row.Attempted += len(samples)
		if time.Since(begin).Seconds()+m.wallS > seconds {
			break
		}
	}
	col := func(f func(passStat) float64) float64 {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			vs[i] = f(p)
		}
		return median(vs)
	}
	values := map[string]float64{
		"setup_s":       setupS,
		"wall_s":        col(func(p passStat) float64 { return p.wallS }),
		"cpu_s":         col(func(p passStat) float64 { return p.cpuS }),
		"op_geomean_ms": col(func(p passStat) float64 { return p.geomeanMS }),
		"op_tail_ms":    col(func(p passStat) float64 { return p.tailMS }),
		"alloc_mb":      col(func(p passStat) float64 { return p.allocMB }),
	}
	fmt.Printf("samples: %d set-ups, %d passes of %d ops in %d kinds; tail_pct %.1f\n",
		setUps, len(passes), passes[0].ops, passes[0].kinds, passes[0].tailPct)
	report(endToEnd, values, row)
	return failures
}

// runTraced replays one pass layer by layer and reports the per-layer
// metrics; the spans go to out/<workload>.spans.jsonl.
func runTraced(w workload, rng *rand.Rand, name string, row *ledgerRow) ([]string, error) {
	t := newTracer()
	var m meter
	m.start()
	out, err := w.trace(rng, t)
	m.stop()
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	byKind := map[string][]float64{}
	for _, s := range out.real {
		byKind[s.kind] = append(byKind[s.kind], s.ms)
	}
	real := make(map[string]float64, len(byKind))
	for k, vs := range byKind {
		real[k] = median(vs)
	}
	var failures []string
	for i, err := range out.errs {
		if err != nil {
			failures = append(failures, out.kinds[i]+": "+err.Error())
		}
	}
	_, realFailed := summarize(out.real)
	failures = append(failures, realFailed...)
	row.Attempted = len(out.kinds) + len(out.real)
	path := filepath.Join("out", name+".spans.jsonl")
	if err := t.rec.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Printf("samples: %d ops replayed, %d performed for real, %d spans in %s\n",
		len(out.kinds), len(out.real), len(t.rec.spans), path)
	report(perLayer, layerMetrics(t, out, real, &m), row)
	return failures, nil
}

// report prints every metric by name with its unit and stores it in row.
func report(defs []metricDef, values map[string]float64, row *ledgerRow) {
	for _, d := range defs {
		fmt.Printf("%-34s %14.6g %s\n", d.name, values[d.name], d.unit)
		row.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
}

func appendLedger(path string, row *ledgerRow) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(row); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readLedger(path string) ([]ledgerRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []ledgerRow
	dec := json.NewDecoder(f)
	for dec.More() {
		var r ledgerRow
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}
