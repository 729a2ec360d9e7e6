package vm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Profiler attributes one launch's execution to barrier-delimited
// regions: every work-group runs as a sequence of rounds (round 0 from
// entry to the first barrier, round 1 from there to the next, ...), and
// Program.Launch reports one Region call per round per work-group with the
// round's wall time and the retire/traffic counters the engine returns.
// Those counters are backend-invariant — they count what the trace holds,
// which the differential suite holds bit-identical across backends — so
// the same kernel profiled on interp and wgvec shows the same counters
// with different wall columns. A nil *Profiler records nothing.
type Profiler struct {
	mu       sync.Mutex
	kernel   string
	backend  string
	launches int
	wall     time.Duration
	regions  map[int]*regionStat
}

type regionStat struct {
	wall     time.Duration
	retired  int64
	loads    int64
	stores   int64
	groups   int64
	barriers int64
}

// NewProfiler creates an empty profiler; install it on LaunchOpts to
// profile a launch.
func NewProfiler() *Profiler { return &Profiler{regions: map[int]*regionStat{}} }

// LaunchBegin records the kernel/backend labels; called once per launch.
func (p *Profiler) LaunchBegin(kernel, backend string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.kernel, p.backend = kernel, backend
	p.mu.Unlock()
}

// LaunchDone accumulates one launch's total wall-clock.
func (p *Profiler) LaunchDone(wall time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.launches++
	p.wall += wall
	p.mu.Unlock()
}

// Region records one barrier-delimited round executed by one work-group:
// its wall time, retired instructions, memory traffic (one load/store
// per executed memory op per work-item, the tracer's Access cadence),
// and whether the round ended at a barrier (false for the exit round).
func (p *Profiler) Region(round int, wall time.Duration, retired, loads, stores int64, barrier bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	r := p.regions[round]
	if r == nil {
		r = &regionStat{}
		p.regions[round] = r
	}
	r.wall += wall
	r.retired += retired
	r.loads += loads
	r.stores += stores
	r.groups++
	if barrier {
		r.barriers++
	}
	p.mu.Unlock()
}

// RegionProfile is one barrier-delimited region aggregated over every
// work-group (and every launch, when the profiler spans repeated runs).
type RegionProfile struct {
	Round    int     `json:"round"`
	Region   string  `json:"region"`
	WallMS   float64 `json:"wall_ms"`
	Retired  int64   `json:"retired"`
	Loads    int64   `json:"loads"`
	Stores   int64   `json:"stores"`
	Groups   int64   `json:"groups"`
	Barriers int64   `json:"barriers"`
}

// ProfileReport is the exportable form of a profiled launch.
type ProfileReport struct {
	Kernel   string          `json:"kernel"`
	Backend  string          `json:"backend"`
	Launches int             `json:"launches"`
	WallMS   float64         `json:"wall_ms"`
	Retired  int64           `json:"retired"`
	Loads    int64           `json:"loads"`
	Stores   int64           `json:"stores"`
	Regions  []RegionProfile `json:"regions"`
}

// Report snapshots the profiler into its exportable form, regions in
// round order. Returns nil when nothing was recorded.
func (p *Profiler) Report() *ProfileReport {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.regions) == 0 && p.launches == 0 {
		return nil
	}
	rep := &ProfileReport{
		Kernel:   p.kernel,
		Backend:  p.backend,
		Launches: p.launches,
		WallMS:   float64(p.wall) / float64(time.Millisecond),
	}
	rounds := make([]int, 0, len(p.regions))
	for r := range p.regions {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	for _, round := range rounds {
		r := p.regions[round]
		label := fmt.Sprintf("round %d → barrier", round)
		if r.barriers == 0 {
			label = fmt.Sprintf("round %d → exit", round)
		} else if r.barriers < r.groups {
			label = fmt.Sprintf("round %d → barrier/exit", round)
		}
		rep.Regions = append(rep.Regions, RegionProfile{
			Round:    round,
			Region:   label,
			WallMS:   float64(r.wall) / float64(time.Millisecond),
			Retired:  r.retired,
			Loads:    r.loads,
			Stores:   r.stores,
			Groups:   r.groups,
			Barriers: r.barriers,
		})
		rep.Retired += r.retired
		rep.Loads += r.loads
		rep.Stores += r.stores
	}
	return rep
}

// Text renders the report as a flamegraph-style table: one bar per
// region, width proportional to that region's share of the summed
// region wall time.
func (r *ProfileReport) Text() string {
	if r == nil {
		return ""
	}
	var total float64
	for _, reg := range r.Regions {
		total += reg.WallMS
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "kernel %s  backend %s  launches %d  wall %.3fms  retired %d  loads %d  stores %d\n",
		r.Kernel, r.Backend, r.Launches, r.WallMS, r.Retired, r.Loads, r.Stores)
	const barWidth = 40
	for _, reg := range r.Regions {
		share := 0.0
		if total > 0 {
			share = reg.WallMS / total
		}
		n := int(share*barWidth + 0.5)
		if n > barWidth {
			n = barWidth
		}
		bar := strings.Repeat("#", n) + strings.Repeat(".", barWidth-n)
		fmt.Fprintf(&sb, "  %-24s |%s| %6.1f%%  %9.3fms  retired %-10d loads %-8d stores %-8d groups %d\n",
			reg.Region, bar, share*100, reg.WallMS, reg.Retired, reg.Loads, reg.Stores, reg.Groups)
	}
	return sb.String()
}
