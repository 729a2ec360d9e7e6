package apps

import (
	"fmt"

	"grover/opencl"
)

// nvdMTSource is the NVIDIA SDK oclTranspose kernel (paper Fig. 1(a)):
// local memory stages a tile so that both the global read and the global
// write are row-major (coalesced on GPUs).
const nvdMTSource = `
#define TILE 16
__kernel void transpose(__global float* odata, __global float* idata,
                        int width, int height) {
    __local float tile[TILE][TILE+1]; /* +1 pad avoids SPM bank conflicts */
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int wx = get_group_id(0);
    int wy = get_group_id(1);
    int xIn = wx * TILE + lx;
    int yIn = wy * TILE + ly;
    tile[ly][lx] = idata[yIn * width + xIn];
    barrier(CLK_LOCAL_MEM_FENCE);
    int xOut = wy * TILE + lx;
    int yOut = wx * TILE + ly;
    odata[yOut * height + xOut] = tile[lx][ly];
}
`

// transposeSetup is shared by the three transpose-shaped benchmarks.
func transposeSetup(kernel string, tile int) func(ctx *opencl.Context, scale int) (*Instance, error) {
	return func(ctx *opencl.Context, scale int) (*Instance, error) {
		if scale <= 0 {
			scale = 1
		}
		n := 128 * scale // width == height; multiple of 128 keeps the
		// power-of-two row stride the paper's CPUs see on 1024² inputs
		in := ctx.NewBuffer(n * n * 4)
		out := ctx.NewBuffer(n * n * 4)
		iv := opencl.Pattern(n*n, 7)
		in.WriteFloat32(iv)
		check := func() error {
			got := out.ReadFloat32(n * n)
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					if got[x*n+y] != iv[y*n+x] {
						return fmt.Errorf("transpose: out[%d][%d] = %g, want %g",
							x, y, got[x*n+y], iv[y*n+x])
					}
				}
			}
			return nil
		}
		return &Instance{
			ND: opencl.NDRange{
				Global: [3]int{n, n, 1},
				Local:  [3]int{tile, tile, 1},
			},
			Args:  []interface{}{out, in, int32(n), int32(n)},
			Check: check,
			Bytes: 2 * n * n * 4,
		}, nil
	}
}

// NVDMT is the NVIDIA SDK matrix transpose (paper Fig. 1).
func NVDMT() *App {
	return &App{
		ID:          "NVD-MT",
		Origin:      "NVIDIA SDK",
		Description: "tiled matrix transpose; local memory keeps both global streams coalesced",
		Kernel:      "transpose",
		Source:      nvdMTSource,
		Setup:       transposeSetup("transpose", 16),
	}
}

// amdRGSource is the transpose stage of the AMD SDK RecursiveGaussian
// sample: the same staging pattern with the tile read back row-swapped.
const amdRGSource = `
#define GROUP_SIZE 16
__kernel void transpose_rg(__global float* output, __global float* input,
                           int width, int height) {
    __local float block[GROUP_SIZE][GROUP_SIZE];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int wx = get_group_id(0);
    int wy = get_group_id(1);
    int gx = wx * GROUP_SIZE + lx;
    int gy = wy * GROUP_SIZE + ly;
    block[ly][lx] = input[gy * width + gx];
    barrier(CLK_LOCAL_MEM_FENCE);
    int ox = wy * GROUP_SIZE + lx;
    int oy = wx * GROUP_SIZE + ly;
    output[oy * height + ox] = block[lx][ly];
}
`

// AMDRG is the RecursiveGaussian transpose kernel from the AMD SDK.
func AMDRG() *App {
	return &App{
		ID:          "AMD-RG",
		Origin:      "AMD SDK",
		Description: "RecursiveGaussian transpose stage; staging for coalescing",
		Kernel:      "transpose_rg",
		Source:      amdRGSource,
		Setup:       transposeSetup("transpose_rg", 16),
	}
}

// amdMTSource is the AMD SDK MatrixTranspose: explicit float4 vector
// types, each work-item moving a 4×4 element block. The block is
// transposed in registers (swizzles) and local memory swaps block
// positions; four stores stage the block, so Grover must pair each local
// load with the matching staging store.
const amdMTSource = `
#define T 8
__kernel void transpose_amd(__global float4* out4, __global float4* in4,
                            int w4, int h4) {
    __local float4 blk[4*T][T];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int wx = get_group_id(0);
    int wy = get_group_id(1);
    float4 r0 = in4[(wy*4*T + 4*ly + 0) * w4 + wx*T + lx];
    float4 r1 = in4[(wy*4*T + 4*ly + 1) * w4 + wx*T + lx];
    float4 r2 = in4[(wy*4*T + 4*ly + 2) * w4 + wx*T + lx];
    float4 r3 = in4[(wy*4*T + 4*ly + 3) * w4 + wx*T + lx];
    float4 c0 = (float4)(r0.x, r1.x, r2.x, r3.x);
    float4 c1 = (float4)(r0.y, r1.y, r2.y, r3.y);
    float4 c2 = (float4)(r0.z, r1.z, r2.z, r3.z);
    float4 c3 = (float4)(r0.w, r1.w, r2.w, r3.w);
    blk[4*lx + 0][ly] = c0;
    blk[4*lx + 1][ly] = c1;
    blk[4*lx + 2][ly] = c2;
    blk[4*lx + 3][ly] = c3;
    barrier(CLK_LOCAL_MEM_FENCE);
    out4[(wx*4*T + 4*ly + 0) * h4 + wy*T + lx] = blk[4*ly + 0][lx];
    out4[(wx*4*T + 4*ly + 1) * h4 + wy*T + lx] = blk[4*ly + 1][lx];
    out4[(wx*4*T + 4*ly + 2) * h4 + wy*T + lx] = blk[4*ly + 2][lx];
    out4[(wx*4*T + 4*ly + 3) * h4 + wy*T + lx] = blk[4*ly + 3][lx];
}
`

// AMDMT is the AMD SDK vector-type matrix transpose.
func AMDMT() *App {
	return &App{
		ID:          "AMD-MT",
		Origin:      "AMD SDK",
		Description: "float4 transpose, 4×4 elements per work-item, register transposition",
		Kernel:      "transpose_amd",
		Source:      amdMTSource,
		Setup: func(ctx *opencl.Context, scale int) (*Instance, error) {
			if scale <= 0 {
				scale = 1
			}
			n := 128 * scale // elements per side; group covers 32×32
			n4 := n / 4
			in := ctx.NewBuffer(n * n * 4)
			out := ctx.NewBuffer(n * n * 4)
			iv := opencl.Pattern(n*n, 11)
			in.WriteFloat32(iv)
			check := func() error {
				got := out.ReadFloat32(n * n)
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						if got[x*n+y] != iv[y*n+x] {
							return fmt.Errorf("AMD-MT: out[%d][%d] = %g, want %g",
								x, y, got[x*n+y], iv[y*n+x])
						}
					}
				}
				return nil
			}
			return &Instance{
				ND: opencl.NDRange{
					Global: [3]int{n4, n4, 1},
					Local:  [3]int{8, 8, 1},
				},
				Args:  []interface{}{out, in, int32(n4), int32(n4)},
				Check: check,
				Bytes: 2 * n * n * 4,
			}, nil
		},
	}
}
