package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grover/internal/service"
)

const tileSrc = `__kernel void k(__global float* o, __global const float* i) {
  __local float t[16];
  int l = get_local_id(0);
  t[l] = i[get_global_id(0)];
  barrier(CLK_LOCAL_MEM_FENCE);
  o[get_global_id(0)] = t[15-l];
}
`

// runTile runs tileSrc over 64 items on two 64-float buffers with clrun's
// output discarded.
func runTile(t *testing.T, device string, useGrover, timed bool, dump string) error {
	return runTileArgs(t, device, service.Dims{64}, []string{"fbuf:64", "fbuf:64"}, useGrover, timed, dump)
}

func runTileArgs(t *testing.T, device string, global service.Dims, args []string, useGrover, timed bool, dump string) error {
	t.Helper()
	file := filepath.Join(t.TempDir(), "k.cl")
	if err := os.WriteFile(file, []byte(tileSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	defer func(stdout *os.File) { os.Stdout = stdout }(os.Stdout)
	os.Stdout = null
	return run(file, device, "", global, service.Dims{16}, args, useGrover, timed, false, dump, "")
}

// TestDumpSpecChecksCount: -dump ARG:COUNT is outside input; a count the
// buffer does not hold is a bad spec, not an index out of range or a
// makeslice panic inside the VM.
func TestDumpSpecChecksCount(t *testing.T) {
	for _, dump := range []string{"0:100000", "0:65", "0:-1", "1:999999", "2:1", "0:x", "0"} {
		err := runTile(t, "SNB", false, false, dump)
		if err == nil || !strings.Contains(err.Error(), "bad -dump spec") {
			t.Errorf("-dump %s: error %v, want a bad -dump spec", dump, err)
		}
	}
	for _, dump := range []string{"0:64", "1:0", ""} {
		if err := runTile(t, "SNB", false, false, dump); err != nil {
			t.Errorf("-dump %s: %v", dump, err)
		}
	}
}

// TestTimedGroverRun drives the single-device profiling queue from the CLI
// on both device kinds: both kernel versions are timed on the run's one
// queue.
func TestTimedGroverRun(t *testing.T) {
	for _, device := range []string{"SNB", "Fermi"} {
		if err := runTile(t, device, true, true, "0:8"); err != nil {
			t.Errorf("-device %s -time -grover: %v", device, err)
		}
	}
}

// TestLaunchCaps: clrun's launch passes groverd's check before anything is
// allocated, so an oversized buffer or NDRange and an indivisible
// dimension are errors with the service's message, not an out-of-memory
// crash. A buffer asking for the removed :seed fill is refused by name.
func TestLaunchCaps(t *testing.T) {
	for _, tc := range []struct {
		global service.Dims
		args   []string
		want   string
	}{
		{service.Dims{64}, []string{"fbuf:40000000000", "fbuf:64"}, "arg 0: buffer size 160000000000 exceeds the 67108864-byte limit"},
		{service.Dims{64}, []string{"fbuf:64", "ibuf:16777217"}, "arg 1: buffer size 67108868 exceeds the 67108864-byte limit"},
		{service.Dims{64}, []string{"fbuf:64", "local:67108865"}, "arg 1: local size 67108865 exceeds the 67108864-byte limit"},
		{service.Dims{1 << 13, 1 << 12}, []string{"fbuf:64", "fbuf:64"}, "exceeds the 16777216-work-item limit"},
		{service.Dims{72}, []string{"fbuf:64", "fbuf:64"}, "not divisible by local size 16 in dim 0"},
		{service.Dims{64}, []string{"fbuf:64", "fbuf:64:seed"}, `"fbuf:64:seed": :seed is no longer accepted`},
	} {
		err := runTileArgs(t, "SNB", tc.global, tc.args, false, false, "")
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-global %v %v: error %v, want %q", tc.global, tc.args, err, tc.want)
		}
	}
}
