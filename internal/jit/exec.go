package jit

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"grover/internal/clc"
	"grover/internal/vm"
)

// Launch implements vm.Executor. An untraced, unprofiled launch of a
// natively built kernel runs the generated code; every other launch is
// the wgvec machine's. A native launch whose transport failed (the worker
// process died) has not touched gmem and runs again on wgvec.
func (m *Machine) Launch(kernel string, cfg vm.Config, gmem *vm.GlobalMem, opts *vm.LaunchOpts) error {
	if opts == nil || opts.TracerFor == nil && opts.Profiler == nil {
		if nat := m.native.kernel(kernel); nat != nil {
			if err := m.launchNative(nat, kernel, cfg, gmem.Data, opts); !errors.Is(err, errWorkerGone) {
				return err
			}
		}
	}
	return m.wg.Launch(kernel, cfg, gmem, opts)
}

// launchNative marshals the launch into the generated module's flat
// calling convention with wgvec's exact launch contract (argument
// checks, dynamic __local layout, group order and error wrap) and runs
// it through the module's transport.
func (m *Machine) launchNative(nat *nativeKernel, kernel string, cfg vm.Config, gmem []byte, opts *vm.LaunchOpts) error {
	p := m.wg.Program()
	fn := p.Module.Kernel(kernel)
	ncfg, err := cfg.Normalized()
	if err != nil {
		return err
	}
	if len(ncfg.Args) != len(fn.Params) {
		return fmt.Errorf("vm: kernel %s expects %d args, got %d", kernel, len(fn.Params), len(ncfg.Args))
	}
	workers := 1
	if opts != nil {
		workers = opts.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// geom is the module's geometry vector: gsz 0-2, lsz 3-5, ngrp 6-8.
	geom := make([]int64, 9)
	var groups [3]int
	for d := 0; d < 3; d++ {
		groups[d] = ncfg.GlobalSize[d] / ncfg.LocalSize[d]
		geom[d] = int64(ncfg.GlobalSize[d])
		geom[3+d] = int64(ncfg.LocalSize[d])
		geom[6+d] = int64(groups[d])
	}
	nGroups := groups[0] * groups[1] * groups[2]
	if nGroups < workers {
		workers = nGroups
	}
	if workers == 0 {
		return nil
	}

	// Dynamic local buffers: lay out after the static local allocas.
	localTotal := m.wg.Bytecode().Func(fn).LocalSize
	paramI := make([]int64, len(ncfg.Args))
	paramF := make([]float64, len(ncfg.Args))
	for i, a := range ncfg.Args {
		switch a.Kind {
		case vm.ArgBuffer:
			paramI[i] = int64(a.Buf.Addr())
		case vm.ArgInt:
			paramI[i] = a.I
		case vm.ArgFloat:
			paramF[i] = a.F
		case vm.ArgLocalBuf:
			const align = 16
			localTotal = (localTotal + align - 1) &^ (align - 1)
			paramI[i] = int64(vm.MakeAddr(clc.ASLocal, uint64(localTotal)))
			localTotal += a.LocalBytes
		}
	}
	stack := p.StackBytes()

	// Subprocess transport: the worker runs the whole launch (all groups)
	// and wraps errors itself, so its result passes through unwrapped.
	if w := nat.mod.worker; w != nil {
		return w.launch(&workerReq{
			Kernel:     nat.index,
			Gmem:       gmem,
			LocalBytes: localTotal,
			PrivBytes:  stack,
			ParamI:     paramI,
			ParamF:     paramF,
			Geom:       geom,
		})
	}

	n := ncfg.LocalSize[0] * ncfg.LocalSize[1] * ncfg.LocalSize[2]
	var wg sync.WaitGroup
	errs := make([]error, workers)
	sched := vm.NewGroupSchedule(nGroups, workers, false)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			g := newNativeWorker(nat, geom, localTotal, stack, n)
			cur := sched.Cursor(worker)
			for gi := cur.Next(); gi >= 0; gi = cur.Next() {
				gz := gi / (groups[0] * groups[1])
				rem := gi % (groups[0] * groups[1])
				gy := rem / groups[0]
				gx := rem % groups[0]
				if err := g.runGroupNative(gmem, paramI, paramF, [3]int{gx, gy, gz}); err != nil {
					errs[worker] = fmt.Errorf("group (%d,%d,%d): %w", gx, gy, gz, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// nativeWorker is one launch worker's state under the plugin transport:
// its runner closure and the arenas it reuses across all its groups.
type nativeWorker struct {
	run   nativeGroupFn
	index int
	local []byte
	priv  [][]byte
	geom  []int64 // the launch's gsz 0-2, lsz 3-5, ngrp 6-8, then grp 9-11
}

func newNativeWorker(nat *nativeKernel, geom9 []int64, localTotal, stack, n int) *nativeWorker {
	g := &nativeWorker{
		run:   nat.mod.newRunner(),
		index: nat.index,
		priv:  make([][]byte, n),
		geom:  make([]int64, 12),
	}
	copy(g.geom, geom9)
	// Grover-rewritten kernels have no __local memory at all; they get no
	// arena and no per-group clear.
	if localTotal > 0 {
		g.local = make([]byte, localTotal)
	}
	for wi := range g.priv {
		g.priv[wi] = make([]byte, stack)
	}
	return g
}

// runGroupNative executes one work-group inside the plugin on a cleared
// local arena.
func (g *nativeWorker) runGroupNative(gmem []byte, paramI []int64, paramF []float64, group [3]int) error {
	clear(g.local)
	g.geom[9], g.geom[10], g.geom[11] = int64(group[0]), int64(group[1]), int64(group[2])
	return g.run(g.index, gmem, g.local, g.priv, paramI, paramF, g.geom)
}
