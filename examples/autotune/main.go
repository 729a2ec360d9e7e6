// Autotune: the paper's headline use case. The kernel is compiled once
// and grover.Tune executes each version once, charging the execution to
// every simulated platform's cost model: each device gets both timings and
// keeps the faster version — "an auto-tuning
// step for OpenCL kernels" (paper abstract). Staging matrix A clearly
// wins on the NVIDIA-style GPUs; on the cache-only CPUs the two versions
// land within a few percent of each other (the paper's Fig. 2 MM bars
// hover around 1.0 on the CPUs too — contrast the transpose example,
// where the CPUs decisively drop local memory).
package main

import (
	"context"
	"fmt"
	"log"

	"grover"
	"grover/opencl"
)

const matmulSource = `
#define BS 16
__kernel void matrixMul(__global float* C, __global float* A, __global float* B,
                        int N, int K) {
    __local float As[BS][BS];
    __local float Bs[BS][BS];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int gx = get_global_id(0);
    int gy = get_global_id(1);
    float acc = 0.0f;
    for (int t = 0; t < K / BS; t++) {
        As[ly][lx] = A[gy*K + t*BS + lx];
        Bs[ly][lx] = B[(t*BS + ly)*N + gx];
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int k = 0; k < BS; k++) {
            acc += As[ly][k] * Bs[k][lx];
        }
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    C[gy*N + gx] = acc;
}
`

func main() {
	const n = 128
	fmt.Println("auto-tuning matrixMul (disable staging of matrix A) on all platforms, one execution per version:")

	mod, err := opencl.CompileModule("matrixMul.cl", matmulSource, nil)
	if err != nil {
		log.Fatal(err)
	}
	devs := opencl.NewPlatform().Devices()
	results := grover.Tune(context.Background(), devs, "matrixMul", grover.LaunchSpec{
		Program: func(ctx *opencl.Context) (*opencl.Program, error) {
			return ctx.NewProgramFromIR("matrixMul.cl", mod)
		},
		Options: grover.Options{Candidates: []string{"As"}},
		ND:      opencl.NDRange{Global: [3]int{n, n, 1}, Local: [3]int{16, 16, 1}},
		Args: func(ctx *opencl.Context) ([]interface{}, error) {
			a := ctx.NewBuffer(n * n * 4)
			b := ctx.NewBuffer(n * n * 4)
			c := ctx.NewBuffer(n * n * 4)
			vals := make([]float32, n*n)
			for i := range vals {
				vals[i] = float32(i%17) * 0.25
			}
			a.WriteFloat32(vals)
			b.WriteFloat32(vals)
			return []interface{}{c, a, b, int32(n), int32(n)}, nil
		},
	})
	for _, r := range results {
		if r.Err != nil {
			log.Fatalf("%s: %v", r.Device, r.Err)
		}
		fmt.Printf("  %-8s → %s\n", r.Device, r.Result)
	}
}
