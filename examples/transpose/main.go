// Transpose: the paper's Figure 2 motivation in miniature. The same
// tiled-transpose kernel runs with and without local memory on every
// simulated platform; GPUs lose when staging is removed (uncoalesced
// column reads), cache-only CPUs win (staging and barriers were pure
// overhead). Run it to see why "local memory for GPUs, no local memory
// for CPUs" is a real — if imperfect — rule of thumb.
package main

import (
	"context"
	"fmt"
	"log"

	"grover"
	"grover/opencl"
)

const transposeSource = `
#define TILE 16
__kernel void transpose(__global float* odata, __global float* idata,
                        int width, int height) {
    __local float tile[TILE][TILE+1];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int wx = get_group_id(0);
    int wy = get_group_id(1);
    tile[ly][lx] = idata[(wy*TILE + ly)*width + wx*TILE + lx];
    barrier(CLK_LOCAL_MEM_FENCE);
    odata[(wx*TILE + ly)*height + wy*TILE + lx] = tile[lx][ly];
}
`

func main() {
	const n = 128
	// One Tune call executes each version once and charges it to all six
	// platforms' cost models.
	results := grover.Tune(context.Background(), opencl.NewPlatform().Devices(), "transpose", grover.LaunchSpec{
		Program: func(ctx *opencl.Context) (*opencl.Program, error) {
			return ctx.CompileProgram("mt.cl", transposeSource, nil)
		},
		ND: opencl.NDRange{Global: [3]int{n, n, 1}, Local: [3]int{16, 16, 1}},
		Args: func(ctx *opencl.Context) ([]interface{}, error) {
			in := ctx.NewBuffer(n * n * 4)
			out := ctx.NewBuffer(n * n * 4)
			vals := make([]float32, n*n)
			for i := range vals {
				vals[i] = float32(i)
			}
			in.WriteFloat32(vals)
			return []interface{}{out, in, int32(n), int32(n)}, nil
		},
	})

	fmt.Printf("%-8s  %-12s %-12s %-6s verdict\n", "device", "with LM", "without LM", "np")
	for _, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		withLM, withoutLM, np := r.Result.OriginalMS, r.Result.TransformedMS, r.Result.Speedup
		verdict := "similar"
		switch {
		case np > 1.05:
			verdict = "disable local memory"
		case np < 0.95:
			verdict = "keep local memory"
		}
		fmt.Printf("%-8s  %9.4f ms %9.4f ms %6.2f %s\n", r.Device, withLM, withoutLM, np, verdict)
	}
}
