package apps

import (
	"grover/opencl"
)

// stencilSource is the Parboil stencil pattern: the tile's center values
// are staged in local memory, neighbor accesses read global memory
// directly (the simplified no-halo staging Parboil uses for the interior).
const stencilSource = `
#define T 16
__kernel void stencil(__global float* out, __global float* in,
                      int nx, int ny, float c0, float c1) {
    __local float tile[T][T];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int gx = get_global_id(0);
    int gy = get_global_id(1);
    tile[ly][lx] = in[gy * nx + gx];
    barrier(CLK_LOCAL_MEM_FENCE);
    if (gx > 0 && gx < nx - 1 && gy > 0 && gy < ny - 1) {
        float center = tile[ly][lx];
        float north = in[(gy - 1) * nx + gx];
        float south = in[(gy + 1) * nx + gx];
        float west = in[gy * nx + gx - 1];
        float east = in[gy * nx + gx + 1];
        float sum = north + south;
        sum = sum + west;
        sum = sum + east;
        out[gy * nx + gx] = c1 * sum + c0 * center;
    } else {
        out[gy * nx + gx] = in[gy * nx + gx];
    }
}
`

// PABST is the Parboil 5-point stencil.
func PABST() *App {
	return &App{
		ID:          "PAB-ST",
		Origin:      "Parboil",
		Description: "5-point stencil; center staged in local memory, halo read from global",
		Kernel:      "stencil",
		Source:      stencilSource,
		Setup: func(ctx *opencl.Context, scale int) (*Instance, error) {
			if scale <= 0 {
				scale = 1
			}
			n := 256 * scale
			c0 := float32(0.5)
			c1 := float32(0.125)
			iv := opencl.Pattern(n*n, 31)
			in := ctx.NewBuffer(n * n * 4)
			out := ctx.NewBuffer(n * n * 4)
			in.WriteFloat32(iv)
			want := reference("stencil", scale, func() []float32 {
				ref := make([]float32, n*n)
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						if x > 0 && x < n-1 && y > 0 && y < n-1 {
							sum := iv[(y-1)*n+x] + iv[(y+1)*n+x]
							sum = sum + iv[y*n+x-1]
							sum = sum + iv[y*n+x+1]
							ref[y*n+x] = c1*sum + c0*iv[y*n+x]
						} else {
							ref[y*n+x] = iv[y*n+x]
						}
					}
				}
				return ref
			})
			check := func() error {
				return compare("stencil", out.ReadFloat32(n*n), want(), 1e-4)
			}
			return &Instance{
				ND: opencl.NDRange{
					Global: [3]int{n, n, 1},
					Local:  [3]int{16, 16, 1},
				},
				Args:  []interface{}{out, in, int32(n), int32(n), c0, c1},
				Check: check,
				Bytes: 2 * n * n * 4,
			}, nil
		},
	}
}
