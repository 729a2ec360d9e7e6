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
	_, err := runSource(t, tileSrc, device, global, args, useGrover, timed, dump)
	return err
}

// runSource runs src's first kernel with a local size of 16 and returns
// what clrun printed.
func runSource(t *testing.T, src, device string, global service.Dims, args []string, useGrover, timed bool, dump string) (string, error) {
	t.Helper()
	dir := t.TempDir()
	file := filepath.Join(dir, "k.cl")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	defer func(stdout *os.File) { os.Stdout = stdout }(os.Stdout)
	os.Stdout = out
	runErr := run(file, device, "", global, service.Dims{16}, args, useGrover, timed, false, dump, "")
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed), runErr
}

// TestDumpPrintsDeclaredKind: -dump prints a buffer in the element kind of
// the parameter it is bound to, so an int buffer holding -56 prints -56,
// not the NaN its bits make as a float, and counts in that kind.
func TestDumpPrintsDeclaredKind(t *testing.T) {
	const src = `__kernel void k(__global int* o, __global float* f, __global uchar* c) {
  int g = get_global_id(0);
  o[g] = g - 56;
  f[g] = 0.5f * g;
  c[g] = (uchar)(254 + g);
}
`
	args := []string{"ibuf:16", "fbuf:16", "ibuf:16"}
	for _, tc := range []struct{ dump, want string }{
		{"0:3", "arg 0: [-56 -55 -54]\n"},
		{"1:3", "arg 1: [0 0.5 1]\n"},
		{"2:3", "arg 2: [254 255 0]\n"},
	} {
		out, err := runSource(t, src, "SNB", service.Dims{16}, args, false, false, tc.dump)
		if err != nil {
			t.Fatalf("-dump %s: %v", tc.dump, err)
		}
		if !strings.HasSuffix(out, tc.want) {
			t.Errorf("-dump %s printed %q, want it to end %q", tc.dump, out, tc.want)
		}
	}
	// A count is in the parameter's elements: 64 bytes hold 64 uchars.
	if _, err := runSource(t, src, "SNB", service.Dims{16}, args, false, false, "2:64"); err != nil {
		t.Errorf("-dump 2:64: %v", err)
	}
	if _, err := runSource(t, src, "SNB", service.Dims{16}, args, false, false, "2:65"); err == nil || !strings.Contains(err.Error(), "holds 64 uchar values") {
		t.Errorf("-dump 2:65: error %v, want the buffer to hold 64 uchar values", err)
	}
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
