package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"grover/internal/device"
)

// golden.json holds the simulated statistics and verdicts every op must
// reproduce. It is regenerated only by -update-golden, which refuses to
// write unless the independent interpreter agrees with the pinned engine.
//
//go:embed golden.json
var goldenJSON []byte

// levelStats is one cache level's counters over a launch.
type levelStats struct {
	Name       string `json:"name"`
	Accesses   int64  `json:"accesses"`
	Hits       int64  `json:"hits"`
	Misses     int64  `json:"misses"`
	Writebacks int64  `json:"writebacks"`
}

// launchStats is everything the device model reports for one launch.
type launchStats struct {
	TimeMS       float64      `json:"time_ms"`
	Cycles       int64        `json:"cycles"`
	Instrs       int64        `json:"instrs"`
	Accesses     int64        `json:"accesses"`
	Transactions int64        `json:"transactions"`
	DRAM         int64        `json:"dram"`
	Caches       []levelStats `json:"caches"`
}

func statsOf(r device.Result) launchStats {
	st := launchStats{TimeMS: r.TimeMS, Cycles: r.Cycles, Instrs: r.Instrs,
		Accesses: r.Accesses, Transactions: r.Transactions, DRAM: r.DRAMAccesses}
	for _, c := range r.Caches {
		st.Caches = append(st.Caches, levelStats{Name: c.Name, Accesses: c.Accesses,
			Hits: c.Hits, Misses: c.Misses, Writebacks: c.Writebacks})
	}
	return st
}

// diff names the first field in which got differs from s, or "".
func (s launchStats) diff(got launchStats) string {
	if reflect.DeepEqual(s, got) {
		return ""
	}
	sv, gv := reflect.ValueOf(s), reflect.ValueOf(got)
	for i := 0; i < sv.NumField(); i++ {
		if !reflect.DeepEqual(sv.Field(i).Interface(), gv.Field(i).Interface()) {
			return fmt.Sprintf("%s = %v, want %v", sv.Type().Field(i).Name,
				gv.Field(i).Interface(), sv.Field(i).Interface())
		}
	}
	return "differs"
}

// cellGolden is one sweep cell: both versions' statistics, the verdict at
// the paper's 5 % threshold and how many __local buffers the pass removed.
type cellGolden struct {
	WithLM    launchStats `json:"with_lm"`
	WithoutLM launchStats `json:"without_lm"`
	Verdict   string      `json:"verdict"`
	Applied   int         `json:"applied"`
}

// planResult is one plan of a plan search on one device.
type planResult struct {
	Plan    string  `json:"plan"`
	Applied bool    `json:"applied"`
	MS      float64 `json:"ms,omitempty"`
}

// tuneResult is a plan search's outcome on one device.
type tuneResult struct {
	Winner string       `json:"winner"`
	BestMS float64      `json:"best_ms"`
	Plans  []planResult `json:"plans"`
}

// frontGolden is what the front-end endpoints answer for one app.
type frontGolden struct {
	Kernels     []string `json:"kernels"`
	Findings    int      `json:"findings"`
	MaxSeverity string   `json:"max_severity"`
	// Transformed, Candidates, Applied and BarriersRemoved describe the
	// classic transform's report.
	Transformed     bool `json:"transformed"`
	Candidates      int  `json:"candidates"`
	Applied         int  `json:"applied"`
	BarriersRemoved int  `json:"barriers_removed"`
	// PlanSteps are the applied flags of the steps of frontendPlan.
	PlanSteps []bool `json:"plan_steps"`
	// Autotune is the classic two-version verdict on the app's device, for
	// the apps in the autotune warm pool.
	Autotune *autotuneGolden `json:"autotune,omitempty"`
}

type autotuneGolden struct {
	Device         string  `json:"device"`
	UseTransformed bool    `json:"use_transformed"`
	OriginalMS     float64 `json:"original_ms"`
	TransformedMS  float64 `json:"transformed_ms"`
}

// goldenFile is bench/golden.json.
type goldenFile struct {
	Note string `json:"note"`
	// Cells is keyed "APP/DEVICE", Tunes "APP/DEVICE", Frontend by app.
	Cells    map[string]cellGolden  `json:"cells"`
	Tunes    map[string]tuneResult  `json:"tunes"`
	Frontend map[string]frontGolden `json:"frontend"`
	// Oracle is the digest of the probe set's statistics on all six
	// devices, identical on the interpreter and the pinned engine.
	Oracle string `json:"oracle"`
}

func loadGolden() (*goldenFile, error) {
	g := &goldenFile{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func cellKey(app, dev string) string { return app + "/" + dev }

// check compares a cell's outcome with the golden entry.
func (g *goldenFile) checkCell(app, dev string, got cellResult, full bool) error {
	want, ok := g.Cells[cellKey(app, dev)]
	if !ok {
		return fmt.Errorf("no golden cell %s", cellKey(app, dev))
	}
	switch {
	case got.verdict != want.Verdict:
		return fmt.Errorf("verdict %s, want %s", got.verdict, want.Verdict)
	case got.applied != want.Applied:
		return fmt.Errorf("%d buffers removed, want %d", got.applied, want.Applied)
	case got.withLM.TimeMS != want.WithLM.TimeMS:
		return fmt.Errorf("with LM %v ms, want %v", got.withLM.TimeMS, want.WithLM.TimeMS)
	case got.withoutLM.TimeMS != want.WithoutLM.TimeMS:
		return fmt.Errorf("without LM %v ms, want %v", got.withoutLM.TimeMS, want.WithoutLM.TimeMS)
	}
	if !full {
		return nil
	}
	if d := want.WithLM.diff(got.withLM); d != "" {
		return fmt.Errorf("with LM: %s", d)
	}
	if d := want.WithoutLM.diff(got.withoutLM); d != "" {
		return fmt.Errorf("without LM: %s", d)
	}
	return nil
}

// checkTune compares a plan search's per-device outcome with the golden
// entry: winner, its time, and every plan's applied flag and time.
func (g *goldenFile) checkTune(app, dev string, got tuneResult) error {
	want, ok := g.Tunes[cellKey(app, dev)]
	if !ok {
		return fmt.Errorf("no golden tune %s", cellKey(app, dev))
	}
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("plan search on %s: got %+v, want %+v", dev, got, want)
	}
	return nil
}

// digest is a stable hash of any JSON-encodable value with sorted keys.
func digest(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only called on the benchmark's own plain structs
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
