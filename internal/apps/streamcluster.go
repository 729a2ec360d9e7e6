package apps

import (
	"grover/opencl"
)

// scSource is the Rodinia streamcluster distance kernel: one candidate
// center's coordinates — stored column-major, so they sit a full
// `npoints` stride apart in global memory — are gathered into a small
// contiguous local array shared by the whole group (paper §VI-C: "a small
// array of 16 data elements, stored far from each other (not in a
// cacheline) ... gathered and stored contiguously in the local space").
const scSource = `
#define DIM 16
__kernel void scDist(__global float* coord, __global float* dist,
                     int npoints, int center) {
    __local float lc[DIM];
    int lx = get_local_id(0);
    int gx = get_global_id(0);
    if (lx < DIM) {
        lc[lx] = coord[lx * npoints + center];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    float d = 0.0f;
    for (int j = 0; j < DIM; j++) {
        float diff = coord[j * npoints + gx] - lc[j];
        d = d + diff * diff;
    }
    dist[gx] = d;
}
`

// RODSC is the Rodinia streamcluster distance computation.
func RODSC() *App {
	return &App{
		ID:          "ROD-SC",
		Origin:      "Rodinia",
		Description: "streamcluster point-to-center distances; strided coordinate gather",
		Kernel:      "scDist",
		Source:      scSource,
		Setup: func(ctx *opencl.Context, scale int) (*Instance, error) {
			if scale <= 0 {
				scale = 1
			}
			n := 8192 * scale // power-of-two point count: column stride aliases cache sets
			const dim = 16
			const center = 37
			coords := opencl.Pattern(dim*n, 41)
			coordBuf := ctx.NewBuffer(dim * n * 4)
			distBuf := ctx.NewBuffer(n * 4)
			coordBuf.WriteFloat32(coords)
			want := reference("streamcluster", scale, func() []float32 {
				ref := make([]float32, n)
				for i := 0; i < n; i++ {
					var d float32
					for j := 0; j < dim; j++ {
						diff := coords[j*n+i] - coords[j*n+center]
						d = d + diff*diff
					}
					ref[i] = d
				}
				return ref
			})
			check := func() error {
				return compare("streamcluster", distBuf.ReadFloat32(n), want(), 1e-3)
			}
			return &Instance{
				ND: opencl.NDRange{
					Global: [3]int{n, 1, 1},
					Local:  [3]int{256, 1, 1},
				},
				Args:  []interface{}{coordBuf, distBuf, int32(n), int32(center)},
				Check: check,
				Bytes: dim*n*4 + n*4,
			}, nil
		},
	}
}
