package apps

import (
	"math"

	"grover/opencl"
)

// nbodySource is the NVIDIA SDK oclNbody pattern: positions of one tile of
// bodies are staged in local memory and every work-item accumulates over
// them. The staged region moves with the tile loop, so the GL expression
// is loop-dependent.
const nbodySource = `
#define P 64
__kernel void nbody(__global float4* pos, __global float4* accOut,
                    int numBodies, float eps) {
    __local float4 sharedPos[P];
    int lx = get_local_id(0);
    int gx = get_global_id(0);
    float4 myPos = pos[gx];
    float ax = 0.0f;
    float ay = 0.0f;
    float az = 0.0f;
    int tiles = numBodies / P;
    for (int t = 0; t < tiles; t++) {
        sharedPos[lx] = pos[t * P + lx];
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int j = 0; j < P; j++) {
            float4 sp = sharedPos[j];
            float rx = sp.x - myPos.x;
            float ry = sp.y - myPos.y;
            float rz = sp.z - myPos.z;
            float d2 = rx * rx;
            d2 = d2 + ry * ry;
            d2 = d2 + rz * rz;
            d2 = d2 + eps;
            float inv = rsqrt(d2);
            float inv3 = inv * inv;
            inv3 = inv3 * inv;
            float s = sp.w * inv3;
            ax = ax + rx * s;
            ay = ay + ry * s;
            az = az + rz * s;
        }
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    accOut[gx] = (float4)(ax, ay, az, myPos.w);
}
`

// NVDNBody is the NVIDIA SDK all-pairs n-body force kernel.
func NVDNBody() *App {
	return &App{
		ID:          "NVD-NBody",
		Origin:      "NVIDIA SDK",
		Description: "all-pairs n-body; body tiles broadcast through local memory",
		Kernel:      "nbody",
		Source:      nbodySource,
		Setup: func(ctx *opencl.Context, scale int) (*Instance, error) {
			if scale <= 0 {
				scale = 1
			}
			n := 1024 * scale
			const eps = float32(0.01)
			posv := opencl.Pattern(n*4, 23)
			pos := ctx.NewBuffer(n * 16)
			out := ctx.NewBuffer(n * 16)
			pos.WriteFloat32(posv)
			want := reference("nbody", scale, func() []float32 {
				ref := make([]float32, n*4)
				for i := 0; i < n; i++ {
					mx, my, mz := posv[i*4], posv[i*4+1], posv[i*4+2]
					var ax, ay, az float32
					for j := 0; j < n; j++ {
						sx, sy, sz, sw := posv[j*4], posv[j*4+1], posv[j*4+2], posv[j*4+3]
						rx := sx - mx
						ry := sy - my
						rz := sz - mz
						d2 := rx * rx
						d2 = d2 + ry*ry
						d2 = d2 + rz*rz
						d2 = d2 + eps
						inv := float32(1 / math.Sqrt(float64(d2)))
						inv3 := inv * inv
						inv3 = inv3 * inv
						s := sw * inv3
						ax = ax + rx*s
						ay = ay + ry*s
						az = az + rz*s
					}
					ref[i*4] = ax
					ref[i*4+1] = ay
					ref[i*4+2] = az
					ref[i*4+3] = posv[i*4+3]
				}
				return ref
			})
			check := func() error {
				return compare("nbody", out.ReadFloat32(n*4), want(), 5e-2)
			}
			return &Instance{
				ND: opencl.NDRange{
					Global: [3]int{n, 1, 1},
					Local:  [3]int{64, 1, 1},
				},
				Args:  []interface{}{pos, out, int32(n), eps},
				Check: check,
				Bytes: 2 * n * 16,
			}, nil
		},
	}
}
