//! Extended kernels beyond the SPECint-stand-in suite: floating-point
//! and mixed workloads used by the extension experiments (the paper's
//! evaluation is integer-only, so these stay out of [`crate::suite`];
//! [`crate::extended_suite`] builds them).

use crate::kernels::{double_list, quad_list, Scale};
use crate::{Check, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sieve of Eratosthenes: byte-flag stores with strided access.
pub(crate) fn sieve(scale: Scale) -> Workload {
    let n = scale.pick(64, 512, 4096);
    // Mirror.
    let mut flags = vec![true; n];
    flags[0] = false;
    if n > 1 {
        flags[1] = false;
    }
    let mut i = 2;
    while i * i < n {
        if flags[i] {
            let mut j = i * i;
            while j < n {
                flags[j] = false;
                j += i;
            }
        }
        i += 1;
    }
    let primes = flags.iter().filter(|&&f| f).count() as u64;

    let src = format!(
        ".data\nflags: .space {n}\n.text\n\
main:   la   r1, flags\n\
        li   r2, {n}\n\
        li   r3, 1\n\
        li   r4, 0\n\
init:   sb   r3, 0(r1)\n\
        addi r1, r1, 1\n\
        addi r4, r4, 1\n\
        blt  r4, r2, init\n\
        la   r1, flags\n\
        sb   r0, 0(r1)\n\
        sb   r0, 1(r1)\n\
        li   r5, 2\n\
outer:  mul  r6, r5, r5\n\
        bge  r6, r2, count\n\
        add  r7, r1, r5\n\
        lbu  r8, 0(r7)\n\
        beqz r8, next\n\
inner:  bge  r6, r2, next\n\
        add  r7, r1, r6\n\
        sb   r0, 0(r7)\n\
        add  r6, r6, r5\n\
        b    inner\n\
next:   addi r5, r5, 1\n\
        b    outer\n\
count:  li   r4, 0\n\
        li   r9, 0\n\
cloop:  add  r7, r1, r9\n\
        lbu  r8, 0(r7)\n\
        add  r4, r4, r8\n\
        addi r9, r9, 1\n\
        blt  r9, r2, cloop\n\
        halt\n"
    );
    Workload {
        name: "sieve",
        description: "sieve of Eratosthenes: strided flag stores, nested loops",
        source: src,
        checks: vec![Check::IntReg {
            reg: 4,
            expected: primes,
        }],
        max_steps: 5_000_000,
    }
}

/// Fixed-point Mandelbrot escape iteration over a small grid: integer
/// multiply pressure with data-dependent loop exits.
pub(crate) fn mandel(scale: Scale) -> Workload {
    let grid = scale.pick(4, 10, 24) as i64;
    let max_iter = 24i64;
    const FRAC: i64 = 12; // fixed-point fraction bits

    // Mirror: sum of escape iteration counts.
    let mut total = 0u64;
    for py in 0..grid {
        for px in 0..grid {
            // c in [-2, 1] x [-1.5, 1.5], fixed point.
            let cr = -(2 << FRAC) + px * (3 << FRAC) / grid;
            let ci = -(3 << (FRAC - 1)) + py * (3 << FRAC) / grid;
            let mut zr = 0i64;
            let mut zi = 0i64;
            let mut it = 0i64;
            while it < max_iter {
                let zr2 = (zr * zr) >> FRAC;
                let zi2 = (zi * zi) >> FRAC;
                if zr2 + zi2 > (4 << FRAC) {
                    break;
                }
                let nzr = zr2 - zi2 + cr;
                zi = ((2 * zr * zi) >> FRAC) + ci;
                zr = nzr;
                it += 1;
            }
            total += it as u64;
        }
    }

    // r10=px r11=py r12=cr r13=ci r14=zr r15=zi r16=it r17..r21 scratch
    // r22=grid r23=maxiter r24=total r25=4<<FRAC
    let src = format!(
        ".text\n\
main:   li   r22, {grid}\n\
        li   r23, {max_iter}\n\
        li   r24, 0\n\
        li   r25, {four}\n\
        li   r11, 0\n\
yloop:  li   r10, 0\n\
xloop:  li   r17, {three}\n\
        mul  r12, r10, r17\n\
        div  r12, r12, r22\n\
        subi r12, r12, {two}\n\
        mul  r13, r11, r17\n\
        div  r13, r13, r22\n\
        subi r13, r13, {onehalf}\n\
        li   r14, 0\n\
        li   r15, 0\n\
        li   r16, 0\n\
iter:   bge  r16, r23, idone\n\
        mul  r18, r14, r14\n\
        srai r18, r18, {frac}\n\
        mul  r19, r15, r15\n\
        srai r19, r19, {frac}\n\
        add  r20, r18, r19\n\
        bgt  r20, r25, idone\n\
        sub  r21, r18, r19\n\
        add  r21, r21, r12\n\
        mul  r15, r14, r15\n\
        srai r15, r15, {fracm1}\n\
        add  r15, r15, r13\n\
        mov  r14, r21\n\
        addi r16, r16, 1\n\
        b    iter\n\
idone:  add  r24, r24, r16\n\
        addi r10, r10, 1\n\
        blt  r10, r22, xloop\n\
        addi r11, r11, 1\n\
        blt  r11, r22, yloop\n\
        halt\n",
        four = 4i64 << FRAC,
        three = 3i64 << FRAC,
        two = 2i64 << FRAC,
        onehalf = 3i64 << (FRAC - 1),
        frac = FRAC,
        fracm1 = FRAC - 1,
    );
    Workload {
        name: "mandel",
        description: "fixed-point mandelbrot: multiplier chains, unpredictable exits",
        source: src,
        checks: vec![Check::IntReg {
            reg: 24,
            expected: total,
        }],
        max_steps: 5_000_000,
    }
}

/// O(n²) gravitational force accumulation (one step, softened):
/// floating-point divide pressure.
pub(crate) fn nbody(scale: Scale) -> Workload {
    let n = scale.pick(6, 16, 40);
    let mut rng = SmallRng::seed_from_u64(0x4E42_000C);
    let xs: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    let ys: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();

    // Mirror: total potential-ish sum  sum_{i<j} 1/(dist2 + eps).
    let eps = 0.05f64;
    let mut energy = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let dx = xs[i] - xs[j];
                let dy = ys[i] - ys[j];
                energy += 1.0 / (dx * dx + dy * dy + eps);
            }
        }
    }

    let src = format!(
        ".data\nxs:\n{}\nys:\n{}\nepsv: .double {eps:?}\nonev: .double 1.0\nout: .space 8\n.text\n\
main:   la   r1, epsv\n\
        fld  f20, 0(r1)\n\
        fld  f21, 8(r1)\n\
        li   r2, {n}\n\
        li   r3, 0\n\
iloop:  li   r4, 0\n\
jloop:  beq  r4, r3, skip\n\
        la   r5, xs\n\
        slli r6, r3, 3\n\
        add  r7, r5, r6\n\
        fld  f1, 0(r7)\n\
        slli r8, r4, 3\n\
        add  r9, r5, r8\n\
        fld  f2, 0(r9)\n\
        la   r5, ys\n\
        add  r7, r5, r6\n\
        fld  f3, 0(r7)\n\
        add  r9, r5, r8\n\
        fld  f4, 0(r9)\n\
        fsub f5, f1, f2\n\
        fsub f6, f3, f4\n\
        fmul f5, f5, f5\n\
        fmul f6, f6, f6\n\
        fadd f7, f5, f6\n\
        fadd f7, f7, f20\n\
        fdiv f8, f21, f7\n\
        fadd f10, f10, f8\n\
skip:   addi r4, r4, 1\n\
        blt  r4, r2, jloop\n\
        addi r3, r3, 1\n\
        blt  r3, r2, iloop\n\
        la   r1, out\n\
        fsd  f10, 0(r1)\n\
        halt\n",
        double_list(&xs),
        double_list(&ys),
    );
    Workload {
        name: "nbody",
        description: "all-pairs force sum: FP divide pressure, quadratic loops",
        source: src,
        checks: vec![Check::MemU64 {
            symbol: "out".into(),
            expected: energy.to_bits(),
        }],
        max_steps: 5_000_000,
    }
}

/// Sparse matrix-vector product in CSR form: irregular column-index
/// loads feeding FP accumulation.
pub(crate) fn spmv(scale: Scale) -> Workload {
    let rows = scale.pick(8, 64, 256);
    let nnz_per_row = 4;
    let mut rng = SmallRng::seed_from_u64(0x5350_000D);
    let mut colidx: Vec<u64> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut rowptr: Vec<u64> = vec![0];
    for _ in 0..rows {
        for _ in 0..nnz_per_row {
            colidx.push(rng.random_range(0..rows as u64));
            vals.push(rng.random_range(-1.0..1.0));
        }
        rowptr.push(colidx.len() as u64 * 8);
    }
    let x: Vec<f64> = (0..rows).map(|_| rng.random_range(-1.0..1.0)).collect();

    // Mirror: y[i] = sum over row, result = sum(y).
    let mut total = 0.0f64;
    for r in 0..rows {
        let mut acc = 0.0f64;
        for k in r * nnz_per_row..(r + 1) * nnz_per_row {
            acc += vals[k] * x[colidx[k] as usize];
        }
        total += acc;
    }

    let src = format!(
        ".data\nrowptr:\n{}\ncolidx:\n{}\nvals:\n{}\nxvec:\n{}\nout: .space 8\n.text\n\
main:   li   r1, 0\n\
        la   r20, rowptr\n\
        la   r21, colidx\n\
        la   r22, vals\n\
        la   r23, xvec\n\
rloop:  slli r2, r1, 3\n\
        add  r3, r20, r2\n\
        ld   r4, 0(r3)\n\
        ld   r5, 8(r3)\n\
        fsub f1, f1, f1\n\
kloop:  bge  r4, r5, rdone\n\
        add  r6, r21, r4\n\
        ld   r7, 0(r6)\n\
        add  r8, r22, r4\n\
        fld  f2, 0(r8)\n\
        slli r9, r7, 3\n\
        add  r9, r23, r9\n\
        fld  f3, 0(r9)\n\
        fmul f4, f2, f3\n\
        fadd f1, f1, f4\n\
        addi r4, r4, 8\n\
        b    kloop\n\
rdone:  fadd f10, f10, f1\n\
        addi r1, r1, 1\n\
        li   r10, {rows}\n\
        blt  r1, r10, rloop\n\
        la   r1, out\n\
        fsd  f10, 0(r1)\n\
        halt\n",
        quad_list(&rowptr),
        quad_list(&colidx),
        double_list(&vals),
        double_list(&x),
    );
    Workload {
        name: "spmv",
        description: "CSR sparse matrix-vector: index-chained loads into FP adds",
        source: src,
        checks: vec![Check::MemU64 {
            symbol: "out".into(),
            expected: total.to_bits(),
        }],
        max_steps: 5_000_000,
    }
}

#[cfg(test)]
mod tests {
    use crate::{extended_suite, suite, Scale};

    #[test]
    fn extended_kernels_pass_checks_at_all_scales() {
        for scale in [Scale::Tiny, Scale::Small] {
            for w in extended_suite(scale) {
                w.run_checks()
                    .unwrap_or_else(|e| panic!("kernel `{}` failed at {scale:?}: {e}", w.name));
            }
        }
    }

    #[test]
    fn extended_kernels_pass_checks_at_default_scale() {
        for w in extended_suite(Scale::Default) {
            w.run_checks()
                .unwrap_or_else(|e| panic!("kernel `{}` failed: {e}", w.name));
        }
    }

    #[test]
    fn names_do_not_collide_with_the_main_suite() {
        let main: Vec<&str> = suite(Scale::Tiny).iter().map(|w| w.name).collect();
        for w in extended_suite(Scale::Tiny) {
            assert!(!main.contains(&w.name));
        }
    }
}
