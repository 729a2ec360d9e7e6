package device

import (
	"runtime"
	"sync"

	"grover/internal/vm"
)

// Set charges one traced launch to several device models at once. The
// functional trace of a launch does not depend on the device — only which
// simulated core a work-group lands on and what that core makes of it do —
// so the launch runs once, on as many workers as the host has processors,
// and every barrier region it produces goes to the right simulated worker
// of every model: work-group g to worker g mod Cores, each worker taking
// its groups in ascending order. That is the stream a Simulator's own
// tracers see in a launch of their own, so Result(i) equals what
// NewSimulator(profiles[i]) reports for the same launch.
//
// A Set serves one launch at a time.
type Set struct {
	models []*setModel
	cpus   []*setModel
	gpus   []*setModel

	hosts []*setTracer

	// A simulated worker is charged by whichever host worker runs its next
	// group; a host worker holding any other group for it waits on turn.
	mu     sync.Mutex
	turn   *sync.Cond
	failed bool
}

// setModel is one device model of a Set. next[w] is the group its worker w
// takes next.
type setModel struct {
	*Simulator
	next []int
}

// NewSet prepares one model per profile.
func NewSet(profiles []*Profile) (*Set, error) {
	s := &Set{}
	s.turn = sync.NewCond(&s.mu)
	for _, p := range profiles {
		sim, err := NewSimulator(p)
		if err != nil {
			return nil, err
		}
		m := &setModel{Simulator: sim, next: make([]int, p.Cores)}
		for w := range m.next {
			m.next[w] = w
		}
		s.models = append(s.models, m)
		if p.Kind == GPUKind {
			s.gpus = append(s.gpus, m)
		} else {
			s.cpus = append(s.cpus, m)
		}
	}
	return s, nil
}

// Opts returns the launch options wiring every model of the set into one
// VM launch on as many workers as the host has processors. More would not
// only be idle: a worker waits for its group's turn holding what the engine
// lent it for the group (wgvec lends a traced launch GOMAXPROCS trace
// buffers), so workers beyond that could starve the one whose turn it is.
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

// Result collects model i's counters, as Simulator.Result does.
func (s *Set) Result(i int) Result { return s.models[i].Result() }

// Reset clears every model, as Simulator.Reset does, and whatever a failed
// launch left behind.
func (s *Set) Reset() {
	for _, m := range s.models {
		m.Simulator.Reset()
		for w := range m.next {
			m.next[w] = w
		}
	}
	for _, t := range s.hosts {
		t.reset()
		t.live = false
	}
	s.failed = false
}

// acquire waits until m's worker for group g has been charged every earlier
// group of its own and returns it. It returns nil when the launch has
// failed: the group that worker is waiting for may never come.
func (s *Set) acquire(m *setModel, g int) *workerSim {
	w := g % len(m.next)
	s.mu.Lock()
	defer s.mu.Unlock()
	for m.next[w] != g && !s.failed {
		s.turn.Wait()
	}
	if s.failed {
		return nil
	}
	return &m.workers[w].workerSim
}

// release passes m's worker for group g on to that worker's next group.
func (s *Set) release(m *setModel, g int) {
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

// setTracer is the tracer one host worker hands the VM. It takes a barrier
// region at a time from the engines that produce one and gathers the
// per-access calls of the others, once for all models. CPU models are
// charged region by region as the group runs; GPU models form warps over a
// whole group, so the group is collected here once and each of them reads
// it in place at GroupEnd.
type setTracer struct {
	regionGather
	set *Set

	// live is set while the current group is being delivered; a group that
	// begins after the launch has failed is not.
	live   bool
	linear int
	// held are the CPU models' workers for this group, from GroupBegin to
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
	t.live = true
}

// AccessBatch implements vm.BatchTracer.
func (t *setTracer) AccessBatch(b *vm.AccessBatch) {
	if !t.live {
		return
	}
	for _, w := range t.held {
		w.AccessBatch(b)
	}
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
		w.chargeGroup(&t.group)
		t.set.release(m, t.linear)
	}
}

// GroupAbort implements vm.GroupAborter: the launch is lost, so nobody may
// wait for a group this worker was still going to run.
func (t *setTracer) GroupAbort() {
	t.live = false
	t.set.fail()
}

func (t *setTracer) flush() {
	if b := t.take(); b != nil {
		t.AccessBatch(b)
		t.drop()
	}
}
