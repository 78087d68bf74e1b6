package kernels

import "repro/internal/softfloat"

// Lane-structured inner loops. Each output element keeps its own
// accumulator register and its own ascending-k reduction chain, so
// results are bit-identical to the one-row-at-a-time kernels; the
// 4-wide row blocking breaks the serial add latency chain across
// four independent chains and reuses every loaded B element for four
// outputs. The k loop is unrolled ×4 with a scalar tail — unrolling
// does not reorder any lane's chain, it only trims loop overhead.
//
// One kernel serves every accumulator type: float32 (FP32, FP16-T,
// BF16-T), int32 (INT8) and float64 (the Reference oracle). SIMT FP16
// re-rounds every step through a binary16 register and has its own
// pair kernel below.

// accum is the accumulator type of a lane: the packed panels hold
// operands already decoded into it.
type accum interface {
	float32 | int32 | float64
}

// dot is the single-lane reduction of the packed panels in
// ascending-k order, for the tail rows. A standalone function keeps
// the accumulator in a register — inside the scheduling closure the
// compiler spills it to the stack every iteration.
//
//go:noinline
func dot[T accum](a, b []T) T {
	var acc T
	b = b[:len(a)]
	for i, v := range a {
		acc += v * b[i]
	}
	return acc
}

// dot4 reduces four packed A rows against one packed B column, each
// lane in ascending-k order. int32 wrapping addition is associative,
// but INT8 keeps the same order anyway, so it needs no separate
// bit-identity argument.
func dot4[T accum](a0, a1, a2, a3, b []T) (s0, s1, s2, s3 T) {
	n := len(b)
	a0 = a0[:n]
	a1 = a1[:n]
	a2 = a2[:n]
	a3 = a3[:n]
	kk := 0
	for ; kk+4 <= n; kk += 4 {
		b0, b1, b2, b3 := b[kk], b[kk+1], b[kk+2], b[kk+3]
		s0 += a0[kk] * b0
		s0 += a0[kk+1] * b1
		s0 += a0[kk+2] * b2
		s0 += a0[kk+3] * b3
		s1 += a1[kk] * b0
		s1 += a1[kk+1] * b1
		s1 += a1[kk+2] * b2
		s1 += a1[kk+3] * b3
		s2 += a2[kk] * b0
		s2 += a2[kk+1] * b1
		s2 += a2[kk+2] * b2
		s2 += a2[kk+3] * b3
		s3 += a3[kk] * b0
		s3 += a3[kk+1] * b1
		s3 += a3[kk+2] * b2
		s3 += a3[kk+3] * b3
	}
	for ; kk < n; kk++ {
		bv := b[kk]
		s0 += a0[kk] * bv
		s1 += a1[kk] * bv
		s2 += a2[kk] * bv
		s3 += a3[kk] * bv
	}
	return
}

// gemm4 computes rows [lo,hi) of the output with the 4-wide lane
// kernel, falling back to single-lane dots for the tail rows, and
// hands each finished accumulator to store.
func gemm4[T accum](aPan, bPan []T, k, m, lo, hi int, store func(i, j int, acc T)) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0 := aPan[(i+0)*k : (i+0)*k+k]
		a1 := aPan[(i+1)*k : (i+1)*k+k]
		a2 := aPan[(i+2)*k : (i+2)*k+k]
		a3 := aPan[(i+3)*k : (i+3)*k+k]
		for j := 0; j < m; j++ {
			s0, s1, s2, s3 := dot4(a0, a1, a2, a3, bPan[j*k:j*k+k])
			store(i+0, j, s0)
			store(i+1, j, s1)
			store(i+2, j, s2)
			store(i+3, j, s3)
		}
	}
	for ; i < hi; i++ {
		a := aPan[i*k : i*k+k]
		for j := 0; j < m; j++ {
			store(i, j, dot(a, bPan[j*k:j*k+k]))
		}
	}
}

// dot2FP16 advances two SIMT FP16 lanes together: binary16 multiply
// and binary16 accumulate per step, exactly the per-step rounding of
// the one-lane loop, with the two softfloat conversion chains
// interleaved for instruction-level parallelism.
func dot2FP16(a0, a1, b []float32) (acc0, acc1 uint16) {
	n := len(b)
	a0 = a0[:n]
	a1 = a1[:n]
	for kk := 0; kk < n; kk++ {
		bv := b[kk]
		p0 := softfloat.F32ToF16(a0[kk] * bv)
		p1 := softfloat.F32ToF16(a1[kk] * bv)
		acc0 = softfloat.F32ToF16(softfloat.F16ToF32(p0) + softfloat.F16ToF32(acc0))
		acc1 = softfloat.F32ToF16(softfloat.F16ToF32(p1) + softfloat.F16ToF32(acc1))
	}
	return
}

// dot1FP16 is the single-lane SIMT FP16 reduction for tail rows.
func dot1FP16(a, b []float32) uint16 {
	b = b[:len(a)]
	var acc uint16
	for kk, av := range a {
		prod := softfloat.F32ToF16(av * b[kk])
		acc = softfloat.F32ToF16(softfloat.F16ToF32(prod) + softfloat.F16ToF32(acc))
	}
	return acc
}

// gemmFP16 computes rows [lo,hi) of the SIMT FP16 output two lanes at
// a time, handing each finished binary16 accumulator to store.
func gemmFP16(aPan, bPan []float32, k, m, lo, hi int, store func(i, j int, acc uint16)) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0 := aPan[(i+0)*k : (i+0)*k+k]
		a1 := aPan[(i+1)*k : (i+1)*k+k]
		for j := 0; j < m; j++ {
			s0, s1 := dot2FP16(a0, a1, bPan[j*k:j*k+k])
			store(i+0, j, s0)
			store(i+1, j, s1)
		}
	}
	for ; i < hi; i++ {
		a := aPan[i*k : i*k+k]
		for j := 0; j < m; j++ {
			store(i, j, dot1FP16(a, bPan[j*k:j*k+k]))
		}
	}
}
