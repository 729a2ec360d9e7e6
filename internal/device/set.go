package device

import (
	"runtime"
	"sync"

	"grover/internal/ir"
	"grover/internal/memsim"
	"grover/internal/vm"
)

// Set charges one traced launch to one or more device models at once. The
// functional trace of a launch does not depend on the device — only which
// simulated core a work-group lands on and what that core makes of it do —
// so the launch runs once, on as many workers as the host has processors,
// and every barrier region it produces goes to the right simulated core of
// every model: work-group g to core g mod Cores, each core taking its
// groups in ascending order. What a model is charged depends on nothing
// else, so Result(i) is the same whichever models share the set: a single
// device is a set of one (Simulator.Opts).
//
// A Set serves one launch at a time.
type Set struct {
	models []*Simulator
	cpus   []*Simulator
	gpus   []*Simulator

	hosts []*setTracer

	// A simulated core is charged by whichever host worker runs its next
	// group; a host worker holding any other group for it waits on turn.
	mu     sync.Mutex
	turn   *sync.Cond
	failed bool
}

// NewSet prepares one model per profile.
func NewSet(profiles []*Profile) (*Set, error) {
	models := make([]*Simulator, len(profiles))
	for i, p := range profiles {
		m, err := NewSimulator(p)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	return newSet(models), nil
}

func newSet(models []*Simulator) *Set {
	s := &Set{models: models}
	s.turn = sync.NewCond(&s.mu)
	for _, m := range models {
		if m.Prof.Kind == GPUKind {
			s.gpus = append(s.gpus, m)
		} else {
			s.cpus = append(s.cpus, m)
		}
	}
	return s
}

// Opts returns the launch options wiring every model of the set into one
// VM launch on as many workers as the host has processors: each worker
// builds a group state of its own, and more workers than processors would
// only hold more of them idle while they wait for their groups' turns.
func (s *Set) Opts() *vm.LaunchOpts {
	n := runtime.GOMAXPROCS(0)
	for len(s.hosts) < n {
		s.hosts = append(s.hosts, &setTracer{set: s, regionGather: regionGather{intern: len(s.gpus) > 0}})
	}
	return &vm.LaunchOpts{
		Workers:   n,
		TracerFor: func(w int) vm.Tracer { return s.hosts[w] },
	}
}

// Result collects model i's counters (Simulator.Result).
func (s *Set) Result(i int) Result { return s.models[i].Result() }

// Reset clears every model (Simulator.Reset) and whatever a failed launch
// left behind.
func (s *Set) Reset() {
	for _, m := range s.models {
		m.Reset()
	}
	s.resetHosts()
}

// resetHosts puts the host side of the set back where a launch starts.
func (s *Set) resetHosts() {
	for _, t := range s.hosts {
		t.reset()
		t.live = false
	}
	s.failed = false
}

// acquire waits until m's core for group g has been charged every earlier
// group of its own and returns it. It returns nil when the launch has
// failed: the group that core is waiting for may never come.
func (s *Set) acquire(m *Simulator, g int) *workerSim {
	c := g % len(m.next)
	s.mu.Lock()
	defer s.mu.Unlock()
	for m.next[c] != g && !s.failed {
		s.turn.Wait()
	}
	if s.failed {
		return nil
	}
	return m.cores[c]
}

// release passes m's core for group g on to that core's next group.
func (s *Set) release(m *Simulator, g int) {
	s.mu.Lock()
	m.next[g%len(m.next)] = g + len(m.next)
	s.mu.Unlock()
	s.turn.Broadcast()
}

func (s *Set) fail() {
	s.mu.Lock()
	s.failed = true
	s.mu.Unlock()
	s.turn.Broadcast()
}

// setTracer is the tracer one host worker hands the VM, and the only one
// this package has. It takes a barrier region at a time from the engines
// that produce one and gathers the per-access calls of the others, once for
// all models. CPU models are charged region by region as the group runs;
// GPU models form warps over a whole group, so the group is collected here
// once — as one batch spanning all its barrier regions, pointer-free and
// keeping its capacity from group to group — and each of them reads it in
// place at GroupEnd.
type setTracer struct {
	regionGather
	scratch
	set *Set

	// live is set while the current group is being delivered; a group that
	// begins after the launch has failed is not.
	live   bool
	linear int
	// held are the CPU models' cores for this group, from GroupBegin to
	// GroupEnd.
	held []*workerSim

	group    vm.AccessBatch
	accesses int64
	instrs   int64
	barriers []int
}

// GroupBegin implements vm.Tracer.
func (t *setTracer) GroupBegin(group [3]int, linear int) {
	t.drop()
	t.linear = linear
	t.held = t.held[:0]
	t.group.Reset(0)
	t.accesses, t.instrs = 0, 0
	t.barriers = t.barriers[:0]
	for _, m := range t.set.cpus {
		w := t.set.acquire(m, linear)
		if w == nil {
			t.live = false
			return
		}
		t.held = append(t.held, w)
	}
	for len(t.memos) < len(t.held) {
		t.memos = append(t.memos, memsim.Memo{})
	}
	for j := range t.held {
		t.memos[j].Reset()
	}
	t.live = true
}

// AccessBatch implements vm.BatchTracer.
func (t *setTracer) AccessBatch(b *vm.AccessBatch) {
	if !t.live {
		return
	}
	t.chargeRegion(b, t.held)
	if len(t.set.gpus) > 0 {
		accesses, instrs := appendRegion(&t.group, b)
		t.accesses += accesses
		t.instrs += instrs
	}
}

// Barrier implements vm.Tracer.
func (t *setTracer) Barrier(wiCount int) {
	t.flush()
	if !t.live {
		return
	}
	for _, w := range t.held {
		w.Barrier(wiCount)
	}
	t.barriers = append(t.barriers, wiCount)
}

// GroupEnd implements vm.Tracer.
func (t *setTracer) GroupEnd() {
	t.flush()
	if !t.live {
		return
	}
	t.live = false
	for _, m := range t.set.cpus {
		t.set.release(m, t.linear)
	}
	for _, m := range t.set.gpus {
		w := t.set.acquire(m, t.linear)
		if w == nil {
			return
		}
		w.accesses += t.accesses
		w.instrs += t.instrs
		for _, n := range t.barriers {
			w.Barrier(n)
		}
		w.chargeGroup(&t.group, &t.scratch)
		t.set.release(m, t.linear)
	}
}

// GroupAbort implements vm.GroupAborter: the launch is lost, so nobody may
// wait for a group this worker was still going to run.
func (t *setTracer) GroupAbort() {
	t.live = false
	t.set.fail()
}

// flush delivers the region gathered from per-access calls, if any.
func (t *setTracer) flush() {
	if t.pending {
		t.AccessBatch(&t.region)
		t.drop()
	}
}

// regionGather gathers the per-access calls of an engine that reports one
// access at a time (the interpreter) into one barrier region's batch, for
// its owner to deliver (while pending) before the Barrier or GroupEnd that
// closes the region, and then drop.
type regionGather struct {
	region  vm.AccessBatch
	pending bool
	// intern is set when a consumer forms warps: only warp formation looks
	// at the instruction, and such an engine switches instruction with every
	// access, so each one is a table lookup worth skipping otherwise.
	intern bool
}

// Access implements vm.Tracer.
func (r *regionGather) Access(in *ir.Instr, wi int, addr uint64, size int, store bool) {
	if wi >= len(r.region.Items) {
		r.region.Extend(wi + 1)
	}
	rec := vm.AccessRec{Addr: addr, Size: int32(size), Store: store}
	if r.intern {
		rec.Instr = r.region.Intern(in)
	}
	r.region.Items[wi] = append(r.region.Items[wi], rec)
	r.pending = true
}

// Instrs implements vm.Tracer.
func (r *regionGather) Instrs(wi int, n int64) {
	if wi >= len(r.region.Items) {
		r.region.Extend(wi + 1)
	}
	r.region.Retired[wi] += n
	r.pending = true
}

// drop empties the region: after delivery, or an aborted group's leftovers.
func (r *regionGather) drop() {
	if r.pending {
		r.region.Clear()
		r.pending = false
	}
}

// reset is drop plus the instruction table, between launches.
func (r *regionGather) reset() {
	r.region.Reset(0)
	r.pending = false
}
