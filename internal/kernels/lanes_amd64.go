//go:build amd64 && !portable_kernels

package kernels

// Wide variant for amd64: a 4×2 register-tile micro-kernel shaped like
// an outer-product intrinsics kernel. Eight accumulators, two column
// values, and four row values occupy 14 of the 16 XMM registers, so
// the compiler keeps the whole tile resident; every A element loaded
// serves two outputs and every B element four. Each accumulator still
// reduces its own output in ascending-k order, so results are
// bit-identical to the portable lane kernel and to the original
// one-row loops.
//
// Build with -tags portable_kernels to force the portable fallback
// instead.

const wideKernelsAvailable = true

// installWideKernels hooks the wide micro-kernels into the dispatch
// variables; called by the capability probe in config.go.
func installWideKernels() { gemmF32Wide = gemmF32WideImpl }

// dot4x2F32 reduces four packed A rows against two packed B columns.
func dot4x2F32(a0, a1, a2, a3, c0, c1 []float32) (s00, s01, s10, s11, s20, s21, s30, s31 float32) {
	n := len(c0)
	a0 = a0[:n]
	a1 = a1[:n]
	a2 = a2[:n]
	a3 = a3[:n]
	c1 = c1[:n]
	for kk := 0; kk < n; kk++ {
		b0, b1 := c0[kk], c1[kk]
		v0 := a0[kk]
		s00 += v0 * b0
		s01 += v0 * b1
		v1 := a1[kk]
		s10 += v1 * b0
		s11 += v1 * b1
		v2 := a2[kk]
		s20 += v2 * b0
		s21 += v2 * b1
		v3 := a3[kk]
		s30 += v3 * b0
		s31 += v3 * b1
	}
	return
}

// gemmF32WideImpl computes rows [lo,hi) with the 4×2 register tile,
// falling back to the 4-wide and single-lane kernels on the edges.
func gemmF32WideImpl(aPan, bPan []float32, k, m, lo, hi int, store func(i, j int, acc float32)) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0 := aPan[(i+0)*k : (i+0)*k+k]
		a1 := aPan[(i+1)*k : (i+1)*k+k]
		a2 := aPan[(i+2)*k : (i+2)*k+k]
		a3 := aPan[(i+3)*k : (i+3)*k+k]
		j := 0
		for ; j+2 <= m; j += 2 {
			c0 := bPan[(j+0)*k : (j+0)*k+k]
			c1 := bPan[(j+1)*k : (j+1)*k+k]
			s00, s01, s10, s11, s20, s21, s30, s31 := dot4x2F32(a0, a1, a2, a3, c0, c1)
			store(i+0, j, s00)
			store(i+0, j+1, s01)
			store(i+1, j, s10)
			store(i+1, j+1, s11)
			store(i+2, j, s20)
			store(i+2, j+1, s21)
			store(i+3, j, s30)
			store(i+3, j+1, s31)
		}
		for ; j < m; j++ {
			s0, s1, s2, s3 := dot4F32(a0, a1, a2, a3, bPan[j*k:j*k+k])
			store(i+0, j, s0)
			store(i+1, j, s1)
			store(i+2, j, s2)
			store(i+3, j, s3)
		}
	}
	for ; i < hi; i++ {
		a := aPan[i*k : i*k+k]
		for j := 0; j < m; j++ {
			store(i, j, dotF32(a, bPan[j*k:j*k+k]))
		}
	}
}
