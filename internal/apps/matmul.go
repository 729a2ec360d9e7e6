package apps

import (
	"grover/opencl"
)

// nvdMMSource is the NVIDIA SDK oclMatrixMul kernel: both input tiles are
// staged in local memory. The paper derives three variants by disabling
// staging for matrix A, matrix B, or both (§V-B).
const nvdMMSource = `
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
    int tiles = K / BS;
    for (int t = 0; t < tiles; t++) {
        As[ly][lx] = A[gy * K + t * BS + lx];
        Bs[ly][lx] = B[(t * BS + ly) * N + gx];
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int k = 0; k < BS; k++) {
            acc += As[ly][k] * Bs[k][lx];
        }
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    C[gy * N + gx] = acc;
}
`

// matmulRef is the n×k by k×n product on the host, in float32 and in the
// kernels' accumulation order.
func matmulRef(a, b []float32, n, k int) []float32 {
	want := make([]float32, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			var acc float32
			for kk := 0; kk < k; kk++ {
				acc += a[y*k+kk] * b[kk*n+x]
			}
			want[y*n+x] = acc
		}
	}
	return want
}

// mmSetup builds square matmul instances with a float32 host reference
// evaluated in the kernel's accumulation order.
func mmSetup(ctx *opencl.Context, scale int) (*Instance, error) {
	if scale <= 0 {
		scale = 1
	}
	n := 128 * scale
	k := n
	a := opencl.Pattern(n*k, 3)
	b := opencl.Pattern(k*n, 5)
	bufA := ctx.NewBuffer(n * k * 4)
	bufB := ctx.NewBuffer(k * n * 4)
	bufC := ctx.NewBuffer(n * n * 4)
	bufA.WriteFloat32(a)
	bufB.WriteFloat32(b)
	want := reference("matmul", scale, func() []float32 { return matmulRef(a, b, n, k) })
	check := func() error {
		return compare("matmul", bufC.ReadFloat32(n*n), want(), 1e-3)
	}
	return &Instance{
		ND: opencl.NDRange{
			Global: [3]int{n, n, 1},
			Local:  [3]int{16, 16, 1},
		},
		Args:  []interface{}{bufC, bufA, bufB, int32(n), int32(k)},
		Check: check,
		Bytes: 3 * n * n * 4,
	}, nil
}

func nvdMM(id string, candidates []string, what string) *App {
	return &App{
		ID:          id,
		Origin:      "NVIDIA SDK",
		Description: "tiled matrix multiplication; " + what,
		Kernel:      "matrixMul",
		Source:      nvdMMSource,
		Candidates:  candidates,
		Setup:       mmSetup,
	}
}

// NVDMMA removes the local tile of matrix A only.
func NVDMMA() *App { return nvdMM("NVD-MM-A", []string{"As"}, "disable staging of matrix A") }

// NVDMMB removes the local tile of matrix B only.
func NVDMMB() *App { return nvdMM("NVD-MM-B", []string{"Bs"}, "disable staging of matrix B") }

// NVDMMAB removes both tiles.
func NVDMMAB() *App { return nvdMM("NVD-MM-AB", nil, "disable staging of both matrices") }

// amdMMSource follows the AMD SDK mmmKernel shape: float4 vector types
// with each work-item computing one row of four output columns. Matrix B
// is staged column-block-wise; the de-staged accesses walk columns of B
// with a large power-of-two stride — the access pattern §VI-C blames for
// the AMD-MM slowdown after removal.
const amdMMSource = `
#define BS 16
#define WX 16
__kernel void mmmAMD(__global float4* C4, __global float* A, __global float4* B4,
                     int n4, int K) {
    __local float4 Bs[BS][WX];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int wx = get_group_id(0);
    int gx = get_global_id(0);
    int gy = get_global_id(1);
    float4 acc = (float4)(0.0f, 0.0f, 0.0f, 0.0f);
    int tiles = K / BS;
    for (int t = 0; t < tiles; t++) {
        Bs[ly][lx] = B4[(t * BS + ly) * n4 + wx * WX + lx];
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int k = 0; k < BS; k++) {
            float a = A[gy * K + t * BS + k];
            acc += (float4)(a, a, a, a) * Bs[k][lx];
        }
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    C4[gy * n4 + gx] = acc;
}
`

// AMDMM is the AMD SDK float4 matrix multiplication.
func AMDMM() *App {
	return &App{
		ID:          "AMD-MM",
		Origin:      "AMD SDK",
		Description: "float4 matmul; column-walked staged matrix (vector loads)",
		Kernel:      "mmmAMD",
		Source:      amdMMSource,
		Setup: func(ctx *opencl.Context, scale int) (*Instance, error) {
			if scale <= 0 {
				scale = 1
			}
			n := 128 * scale
			k := n
			n4 := n / 4
			a := opencl.Pattern(n*k, 13)
			b := opencl.Pattern(k*n, 17)
			bufA := ctx.NewBuffer(n * k * 4)
			bufB := ctx.NewBuffer(k * n * 4)
			bufC := ctx.NewBuffer(n * n * 4)
			bufA.WriteFloat32(a)
			bufB.WriteFloat32(b)
			want := reference("AMD-MM", scale, func() []float32 { return matmulRef(a, b, n, k) })
			check := func() error {
				return compare("AMD-MM", bufC.ReadFloat32(n*n), want(), 1e-3)
			}
			return &Instance{
				ND: opencl.NDRange{
					Global: [3]int{n4, n, 1},
					Local:  [3]int{16, 16, 1},
				},
				Args:  []interface{}{bufC, bufA, bufB, int32(n4), int32(k)},
				Check: check,
				Bytes: 3 * n * n * 4,
			}, nil
		},
	}
}
