package service

import (
	"context"
	"net/http"
	"sync"
	"testing"

	"grover/internal/apps"
	"grover/internal/telemetry"
	"grover/internal/vm"
)

// The tests below hold the compile artifact to doing only what a response
// carries: a compile, lint or transform neither prepares the program for
// execution nor renders IR text nobody asked for.

// topLevel counts the spans named name that no other span encloses: the
// compiled program's preparation, not the re-preparation of a rewritten
// kernel under a tune:<plan> span.
func topLevel(spans []telemetry.SpanJSON, name string) int {
	n := 0
	for _, sp := range spans {
		if sp.Name == name && sp.ParentID == 0 {
			n++
		}
	}
	return n
}

// engineCompiles is how many wgvec.compile spans one preparation records:
// one where wgvec runs launches, none where the interpreter does.
func engineCompiles() int {
	if vm.Engine() == vm.BackendWgvec {
		return 1
	}
	return 0
}

// TestFirstAutotunePrepares: a compiled program is prepared by the first
// autotune that executes it, under that request, whose spans carry
// vm.prepare and the engine compile; a later autotune of the program on
// another device, a verdict of its own, prepares nothing.
func TestFirstAutotunePrepares(t *testing.T) {
	ts := newTestServer(t)
	source, req := nvdMT()
	var comp CompileResponse
	if code, body := postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{Name: req.Name, Source: source}, &comp); code != http.StatusOK {
		t.Fatalf("compile: %d %s", code, body)
	}

	first := tune(t, ts.URL, req)
	if got := topLevel(first.Spans, "vm.prepare"); got != 1 {
		t.Errorf("first autotune has %d top-level vm.prepare spans, want 1: %v", got, first.Spans)
	}
	if got, want := topLevel(first.Spans, "wgvec.compile"), engineCompiles(); got != want {
		t.Errorf("first autotune has %d top-level wgvec.compile spans on %s, want %d", got, vm.Engine(), want)
	}
	if topLevel(first.Spans, "clc.parse") != 0 {
		t.Errorf("autotune recompiled a cached program: %v", first.Spans)
	}

	req.Device = "Fermi"
	second := tune(t, ts.URL, req)
	if second.Results[0].Cache != "miss" {
		t.Fatalf("second device's verdict cache = %q, want miss", second.Results[0].Cache)
	}
	for _, name := range []string{"vm.prepare", "wgvec.compile"} {
		if got := topLevel(second.Spans, name); got != 0 {
			t.Errorf("second autotune prepared again: %d top-level %s spans", got, name)
		}
	}
}

// TestConcurrentFirstAutotunesPrepareOnce: a cold compile, lint and
// transform leave the program unprepared, and concurrent first autotunes
// of it on six devices — six verdict keys, one compile artifact — share
// one preparation: one vm.prepare and one engine compile across all their
// traces.
func TestConcurrentFirstAutotunesPrepareOnce(t *testing.T) {
	ctx := context.Background()
	s := New(Config{CacheCapacity: 64, Workers: 4})
	source, req := nvdMT()
	if _, err := s.Compile(ctx, &CompileRequest{Name: req.Name, Source: source}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lint(ctx, &LintRequest{Name: req.Name, Source: source}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transform(ctx, &TransformRequest{Name: req.Name, Source: source, Kernel: req.Kernel}); err != nil {
		t.Fatal(err)
	}
	comp, out, err := s.compile(ctx, newProgram(req.Name, source, nil))
	if err != nil || out.String() != "hit" {
		t.Fatalf("compile artifact: %v, cache %s", err, out)
	}
	if comp.prog != nil || comp.prepErr != nil {
		t.Fatal("a compile, lint and transform prepared the program for execution")
	}

	// Every request is in flight before any reaches the artifact.
	resps := make([]*AutotuneResponse, len(allDevices))
	errs := make([]error, len(allDevices))
	spans := make([][]telemetry.SpanJSON, len(allDevices))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, d := range allDevices {
		wg.Add(1)
		go func(i int, r AutotuneRequest) {
			defer wg.Done()
			rctx, tr := telemetry.WithTrace(ctx)
			<-start
			resps[i], errs[i] = s.Autotune(rctx, &r)
			spans[i] = tr.JSON()
		}(i, func() AutotuneRequest { r := req; r.Device = d; return r }())
	}
	close(start)
	wg.Wait()

	prepares, compiles := 0, 0
	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatalf("autotune %s: %v", allDevices[i], errs[i])
		}
		if c := resp.Results[0].Cache; c != "miss" {
			t.Errorf("autotune %s: verdict cache %q, want miss", allDevices[i], c)
		}
		prepares += topLevel(spans[i], "vm.prepare")
		compiles += topLevel(spans[i], "wgvec.compile")
	}
	if prepares != 1 {
		t.Errorf("%d concurrent first autotunes prepared the program %d times, want once", len(allDevices), prepares)
	}
	if want := engineCompiles(); compiles != want {
		t.Errorf("%d concurrent first autotunes compiled the engine %d times on %s, want %d",
			len(allDevices), compiles, vm.Engine(), want)
	}
	if comp.prog == nil {
		t.Error("the autotunes left the cached artifact unprepared")
	}
}

// TestWantIRIsUnchangedByEarlierUse: the IR text a want_ir compile or
// transform gets from an artifact that plain compiles, lints, transforms
// and an autotune created and used first is byte for byte the text a fresh
// server's cold want_ir request gets, for every app.
func TestWantIRIsUnchangedByEarlierUse(t *testing.T) {
	ctx := context.Background()
	used := New(Config{CacheCapacity: 256, Workers: 2})
	_, tuneReq := nvdMT()
	for _, app := range apps.All() {
		compile := CompileRequest{Name: app.ID, Source: app.Source, Defines: app.Defines}
		transforms := []TransformRequest{
			{Name: app.ID, Source: app.Source, Defines: app.Defines, Kernel: app.Kernel,
				Options: OptionsSpec{Candidates: app.Candidates}},
			{Name: app.ID, Source: app.Source, Defines: app.Defines, Kernel: app.Kernel, Plan: "grover"},
		}
		if _, err := used.Compile(ctx, &compile); err != nil {
			t.Fatalf("%s: compile: %v", app.ID, err)
		}
		for _, plan := range []string{"", "grover"} {
			lint := LintRequest{Name: app.ID, Source: app.Source, Defines: app.Defines, Kernel: app.Kernel, Plan: plan}
			if _, err := used.Lint(ctx, &lint); err != nil {
				t.Fatalf("%s: lint plan %q: %v", app.ID, plan, err)
			}
		}
		for i := range transforms {
			if _, err := used.Transform(ctx, &transforms[i]); err != nil {
				t.Fatalf("%s: transform %d: %v", app.ID, i, err)
			}
		}
		if app.ID == "NVD-MT" {
			req := tuneReq
			req.Name = app.ID
			if _, err := used.Autotune(ctx, &req); err != nil {
				t.Fatalf("%s: autotune: %v", app.ID, err)
			}
		}

		fresh := func() *Server { return New(Config{CacheCapacity: 8, Workers: 1}) }
		compile.WantIR = true
		got, err := used.Compile(ctx, &compile)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh().Compile(ctx, &compile)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cache != "hit" || want.Cache != "miss" {
			t.Fatalf("%s: compile cache outcomes %s, %s; want hit, miss", app.ID, got.Cache, want.Cache)
		}
		if want.IR == "" || got.IR != want.IR {
			t.Errorf("%s: want_ir compile from a used artifact differs from a cold one", app.ID)
		}
		for i := range transforms {
			transforms[i].WantIR = true
			got, err := used.Transform(ctx, &transforms[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh().Transform(ctx, &transforms[i])
			if err != nil {
				t.Fatal(err)
			}
			if got.Cache != "hit" || want.Cache != "miss" {
				t.Fatalf("%s: transform %d cache outcomes %s, %s; want hit, miss", app.ID, i, got.Cache, want.Cache)
			}
			if want.IR == "" || got.IR != want.IR {
				t.Errorf("%s: want_ir transform %d from a used artifact differs from a cold one", app.ID, i)
			}
		}
	}
}
