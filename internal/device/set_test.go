package device

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"grover/internal/vm"
)

// setSrc holds the kernels of the set tests, which take the same arguments:
// a strided copy — one barrier region, every access a full column — and a
// staged one: two regions, a __local tile, and an access only every third
// work-item makes, which those hold as records of their own beside the
// others' columns.
const setSrc = `
__kernel void copy(__global float* dst, __global float* src, int stride, __local float* tile) {
    int i = get_global_id(0);
    dst[i] = src[i * stride];
}
__kernel void stage(__global float* dst, __global float* src, int stride, __local float* tile) {
    int i = get_global_id(0);
    int l = get_local_id(0);
    tile[l] = src[i * stride];
    barrier(CLK_LOCAL_MEM_FENCE);
    float v = tile[63 - l];
    if (l % 3 == 0) {
        v += src[i + 1];
    }
    dst[i] = v;
}
`

// setResults launches a kernel of setSrc once for all profiles through a
// Set and returns one result per profile.
func setResults(t *testing.T, set *Set, profiles []*Profile, backend, kernel string, groups int) []Result {
	t.Helper()
	p := compile(t, setSrc)
	n := 64 * groups
	g := vm.NewGlobalMem(1 << 24)
	cfg := vm.Config{
		GlobalSize: [3]int{n, 1, 1},
		LocalSize:  [3]int{64, 1, 1},
		Args:       []vm.Arg{vm.BufArg(g.Alloc(n * 4)), vm.BufArg(g.Alloc(n * 4 * 3)), vm.IntArg(3), vm.LocalArg(64 * 4)},
		Backend:    backend,
	}
	set.Reset()
	if err := p.Launch(kernel, cfg, g, set.Opts()); err != nil {
		t.Fatal(err)
	}
	out := make([]Result, len(profiles))
	for i := range out {
		out[i] = set.Result(i)
	}
	return out
}

// TestSetMatchesSimulators: one launch charged to all six models — the CPU
// ones walking each tile of a region one after the other — reports, per
// profile, what a set of that profile alone reports for a launch of its
// own: on an engine that delivers regions and one that reports every
// access, with more groups than any device has cores and with fewer. (What
// either must report is TestEnginesMatchRecordedStream's business.)
func TestSetMatchesSimulators(t *testing.T) {
	profiles := All()
	set, err := NewSet(profiles)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"wgvec", "interp"} {
		for _, kernel := range []string{"copy", "stage"} {
			for _, groups := range []int{3, 16, 150} {
				got := setResults(t, set, profiles, backend, kernel, groups)
				for i, p := range profiles {
					one, err := NewSet([]*Profile{p})
					if err != nil {
						t.Fatal(err)
					}
					if alone := setResults(t, one, profiles[i:i+1], backend, kernel, groups)[0]; !reflect.DeepEqual(got[i], alone) {
						t.Errorf("%s, %s, %d groups on %s: in the set of six\n %+v\nalone\n %+v", p.Name, kernel, groups, backend, got[i], alone)
					}
				}
			}
		}
	}
}

// TestSetAbortReleasesWaiters: a host worker whose group failed aborts it,
// and a worker waiting for that group's simulated core to be passed on
// returns instead of waiting forever; after Reset the set is as new.
func TestSetAbortReleasesWaiters(t *testing.T) {
	profiles := []*Profile{SNB(), Fermi()}
	set, err := NewSet(profiles)
	if err != nil {
		t.Fatal(err)
	}
	// One host worker never waits for another.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	set.Opts()
	b := steadyGroup(0, false)
	a, w := set.hosts[0], set.hosts[1]

	a.GroupBegin([3]int{}, 0)
	a.AccessBatch(b)
	released := make(chan struct{})
	go func() {
		defer close(released)
		// SNB core 0 takes group 4 after group 0, which never ends.
		w.GroupBegin([3]int{}, SNB().Cores)
		w.AccessBatch(b)
		w.GroupEnd()
	}()
	select {
	case <-released:
		t.Fatal("group 4 was delivered to a core still busy with group 0")
	case <-time.After(20 * time.Millisecond):
	}
	a.GroupAbort()
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("a worker is still waiting for the aborted group's core")
	}

	fresh, err := NewSet(profiles)
	if err != nil {
		t.Fatal(err)
	}
	want := setResults(t, fresh, profiles, "wgvec", "stage", 12)
	if got := setResults(t, set, profiles, "wgvec", "stage", 12); !reflect.DeepEqual(got, want) {
		t.Errorf("after an aborted launch and Reset:\n got %+v\nwant %+v", got, want)
	}
}
