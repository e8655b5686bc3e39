//! The twelve benchmark kernels, and the name table every kernel
//! lookup builds from.
//!
//! Each generator emits assembly plus checks whose expected values come
//! from a Rust mirror of the same algorithm run on the same
//! (deterministically generated) data.

use crate::{kernels_ext, Check, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::{self, Write as _};
use ubrc_isa::DATA_BASE;

/// Problem-size preset for the kernel suite.
///
/// `Tiny` keeps unit tests fast (a few thousand dynamic instructions per
/// kernel); `Small` suits quick experiment smoke runs; `Default` is the
/// size the experiment harness uses (roughly 30k-300k dynamic
/// instructions per kernel — the paper's rates and medians stabilize well
/// before that).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Smallest inputs, for unit tests.
    Tiny,
    /// Medium inputs, for smoke experiments.
    Small,
    /// Full-size inputs, used by the experiment harness.
    #[default]
    Default,
}

impl Scale {
    pub(crate) fn pick(self, tiny: usize, small: usize, default: usize) -> usize {
        match self {
            Scale::Tiny => tiny,
            Scale::Small => small,
            Scale::Default => default,
        }
    }
}

/// A kernel's name and its constructor.
type Kernel = (&'static str, fn(Scale) -> Workload);

/// Every bundled kernel's constructor, by name: the 12-kernel suite in
/// suite order, then the four extended kernels. Each name is its
/// workload's [`Workload::name`]. Every lookup below builds only the
/// kernels it returns.
const KERNELS: [Kernel; 16] = [
    ("qsort", qsort),
    ("listchase", listchase),
    ("hash", hash),
    ("matmul", matmul),
    ("crc", crc),
    ("fib", fib),
    ("bfs", bfs),
    ("strsearch", strsearch),
    ("rle", rle),
    ("bitops", bitops),
    ("fpmix", fpmix),
    ("dispatch", dispatch),
    ("sieve", kernels_ext::sieve),
    ("mandel", kernels_ext::mandel),
    ("nbody", kernels_ext::nbody),
    ("spmv", kernels_ext::spmv),
];

/// How many of [`KERNELS`] make up [`suite`].
const SUITE_LEN: usize = 12;

fn build(kernels: &[Kernel], scale: Scale) -> Vec<Workload> {
    kernels.iter().map(|(_, kernel)| kernel(scale)).collect()
}

/// Builds the full 12-kernel suite at the given scale.
pub fn suite(scale: Scale) -> Vec<Workload> {
    build(&KERNELS[..SUITE_LEN], scale)
}

/// The four extended kernels: sieve, mandel, nbody, spmv (FP and mixed
/// workloads for the extension experiments; the paper's evaluation is
/// integer-only, so these stay out of [`suite`]).
pub fn extended_suite(scale: Scale) -> Vec<Workload> {
    build(&KERNELS[SUITE_LEN..], scale)
}

/// The names of all 16 bundled kernels: the suite's, then the extended
/// kernels'.
pub fn kernel_names() -> impl Iterator<Item = &'static str> {
    KERNELS.iter().map(|&(name, _)| name)
}

/// Builds one kernel of the suite or the extended suite by name at the
/// given scale.
pub fn workload_by_name(name: &str, scale: Scale) -> Option<Workload> {
    KERNELS
        .iter()
        .find(|&&(n, _)| n == name)
        .map(|(_, kernel)| kernel(scale))
}

/// Co-schedule pairings for the SMT experiments: the 12-kernel suite
/// folded into 6 fixed pairs, each mixing dissimilar behaviors
/// (pointer-chasing with branchy scanning, hashing with byte streaming,
/// dense FP with bit manipulation) so the two contexts compete for the
/// register cache rather than mirroring each other. The pairing is
/// deterministic — it is part of the `smt` golden-row identity.
pub fn kernel_pairs(scale: Scale) -> Vec<(Workload, Workload)> {
    const PAIRS: [(&str, &str); 6] = [
        ("qsort", "bfs"),
        ("listchase", "strsearch"),
        ("hash", "rle"),
        ("matmul", "bitops"),
        ("crc", "fpmix"),
        ("fib", "dispatch"),
    ];
    PAIRS
        .iter()
        .map(|&(a, b)| {
            (
                workload_by_name(a, scale).expect("suite kernel"),
                workload_by_name(b, scale).expect("suite kernel"),
            )
        })
        .collect()
}

/// Co-schedule groupings for the 4-thread SMT experiments: the six
/// [`kernel_pairs`] folded pairwise into 3 fixed quads, preserving the
/// dissimilar-behavior mixing (each quad spans at least three of the
/// pointer-chasing / branchy / hashing-streaming / dense-compute
/// behavior classes). Deterministic — part of the `smt4` golden-row
/// identity.
pub fn kernel_quads(scale: Scale) -> Vec<[Workload; 4]> {
    const QUADS: [[&str; 4]; 3] = [
        ["qsort", "bfs", "listchase", "strsearch"],
        ["hash", "rle", "matmul", "bitops"],
        ["crc", "fpmix", "fib", "dispatch"],
    ];
    QUADS
        .iter()
        .map(|names| names.map(|n| workload_by_name(n, scale).expect("suite kernel")))
        .collect()
}

/// Lines of one data directive, `per_line` values to a line, written
/// straight into the surrounding source by `Display`.
struct DataLines<'a, T> {
    directive: &'static str,
    per_line: usize,
    values: &'a [T],
    item: fn(&T, &mut fmt::Formatter<'_>) -> fmt::Result,
}

impl<T> fmt::Display for DataLines<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for chunk in self.values.chunks(self.per_line) {
            f.write_str(self.directive)?;
            for (i, v) in chunk.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                (self.item)(v, f)?;
            }
            f.write_char('\n')?;
        }
        Ok(())
    }
}

/// `.quad` lines, eight signed values to a line.
pub(crate) fn quad_list(values: &[u64]) -> impl fmt::Display + '_ {
    DataLines {
        directive: ".quad ",
        per_line: 8,
        values,
        item: |v, f| write!(f, "{}", *v as i64),
    }
}

/// `.byte` lines, sixteen values to a line.
fn byte_list(values: &[u8]) -> impl fmt::Display + '_ {
    DataLines {
        directive: ".byte ",
        per_line: 16,
        values,
        item: |v, f| write!(f, "{v}"),
    }
}

/// `.double` lines, four values to a line, each in the round-trip
/// `Debug` form.
pub(crate) fn double_list(values: &[f64]) -> impl fmt::Display + '_ {
    DataLines {
        directive: ".double ",
        per_line: 4,
        values,
        item: |v, f| write!(f, "{v:?}"),
    }
}

/// Recursive quicksort (Lomuto partition) over random quadwords, then a
/// verification sweep computing the array sum and a sortedness flag.
fn qsort(scale: Scale) -> Workload {
    let n = scale.pick(24, 96, 512);
    let mut rng = SmallRng::seed_from_u64(0x5157_0001);
    let values: Vec<u64> = (0..n).map(|_| rng.random_range(0..1u64 << 40)).collect();
    let sum: u64 = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));

    let mut src = String::new();
    let _ = write!(
        src,
        ".data\narr:\n{}\n.text\n\
main:   la   r1, arr\n\
        li   r2, {n}\n\
        subi r3, r2, 1\n\
        slli r3, r3, 3\n\
        add  r2, r1, r3\n\
        call qsort\n\
        la   r1, arr\n\
        li   r2, {n}\n\
        li   r4, 0\n\
        li   r5, 1\n\
        ld   r6, 0(r1)\n\
chk:    ld   r7, 0(r1)\n\
        add  r4, r4, r7\n\
        blt  r7, r6, bad\n\
        mov  r6, r7\n\
        addi r1, r1, 8\n\
        subi r2, r2, 1\n\
        bgtz r2, chk\n\
        b    fin\n\
bad:    li   r5, 0\n\
fin:    halt\n\
qsort:  blt  r1, r2, qbody\n\
        ret\n\
qbody:  subi sp, sp, 32\n\
        sd   ra, 0(sp)\n\
        sd   r1, 8(sp)\n\
        sd   r2, 16(sp)\n\
        ld   r8, 0(r2)\n\
        subi r9, r1, 8\n\
        mov  r10, r1\n\
ploop:  bge  r10, r2, pend\n\
        ld   r11, 0(r10)\n\
        bgt  r11, r8, pskip\n\
        addi r9, r9, 8\n\
        ld   r12, 0(r9)\n\
        sd   r11, 0(r9)\n\
        sd   r12, 0(r10)\n\
pskip:  addi r10, r10, 8\n\
        b    ploop\n\
pend:   addi r9, r9, 8\n\
        ld   r12, 0(r9)\n\
        ld   r11, 0(r2)\n\
        sd   r11, 0(r9)\n\
        sd   r12, 0(r2)\n\
        sd   r9, 24(sp)\n\
        ld   r1, 8(sp)\n\
        subi r2, r9, 8\n\
        call qsort\n\
        ld   r9, 24(sp)\n\
        addi r1, r9, 8\n\
        ld   r2, 16(sp)\n\
        call qsort\n\
        ld   ra, 0(sp)\n\
        addi sp, sp, 32\n\
        ret\n",
        quad_list(&values)
    );
    Workload {
        name: "qsort",
        description: "recursive quicksort: data-dependent branches, stack traffic",
        source: src,
        checks: vec![
            Check::IntReg {
                reg: 4,
                expected: sum,
            },
            Check::IntReg {
                reg: 5,
                expected: 1,
            },
        ],
        max_steps: 5_000_000,
    }
}

/// Pointer-chasing traversal of a randomly-ordered cyclic linked list.
fn listchase(scale: Scale) -> Workload {
    let n = scale.pick(32, 128, 512);
    let passes = scale.pick(4, 16, 40) as u64;
    let mut rng = SmallRng::seed_from_u64(0x1157_0002);
    let payloads: Vec<u64> = (0..n).map(|_| rng.random_range(1..1u64 << 32)).collect();
    // Random cycle through all nodes starting at node 0.
    let mut order: Vec<usize> = (1..n).collect();
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut cycle = vec![0usize];
    cycle.extend(order);
    let mut next = vec![0u64; n];
    for k in 0..n {
        let from = cycle[k];
        let to = cycle[(k + 1) % n];
        next[from] = DATA_BASE + 16 * to as u64;
    }
    let mut node_words = Vec::with_capacity(2 * n);
    for i in 0..n {
        node_words.push(payloads[i]);
        node_words.push(next[i]);
    }
    let sum: u64 = payloads
        .iter()
        .fold(0u64, |a, &v| a.wrapping_add(v))
        .wrapping_mul(passes);

    let src = format!(
        ".data\nnodes:\n{}\n.text\n\
main:   li   r9, {passes}\n\
        li   r4, 0\n\
pass:   la   r1, nodes\n\
        li   r2, {n}\n\
walk:   ld   r5, 0(r1)\n\
        add  r4, r4, r5\n\
        ld   r1, 8(r1)\n\
        subi r2, r2, 1\n\
        bgtz r2, walk\n\
        subi r9, r9, 1\n\
        bgtz r9, pass\n\
        halt\n",
        quad_list(&node_words)
    );
    Workload {
        name: "listchase",
        description: "pointer chasing: serialized loads, long dependence chains",
        source: src,
        checks: vec![Check::IntReg {
            reg: 4,
            expected: sum,
        }],
        max_steps: 5_000_000,
    }
}

/// Open-addressing hash table: insert N distinct keys, then look all of
/// them up, counting hits and total probes.
fn hash(scale: Scale) -> Workload {
    let n = scale.pick(16, 128, 1024);
    let table_size = (2 * n).next_power_of_two();
    let lg = table_size.trailing_zeros();
    let mult: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut rng = SmallRng::seed_from_u64(0x4A57_0003);
    let mut keys: Vec<u64> = Vec::with_capacity(n);
    while keys.len() < n {
        let k = rng.random_range(1..u64::MAX);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    // Mirror: count total probes over all lookups.
    let mut table = vec![0u64; table_size];
    for &k in &keys {
        let mut idx = (k.wrapping_mul(mult) >> (64 - lg)) as usize;
        while table[idx] != 0 {
            idx = (idx + 1) & (table_size - 1);
        }
        table[idx] = k;
    }
    let mut probes = 0u64;
    for &k in &keys {
        let mut idx = (k.wrapping_mul(mult) >> (64 - lg)) as usize;
        probes += 1;
        while table[idx] != k {
            idx = (idx + 1) & (table_size - 1);
            probes += 1;
        }
    }

    let shift = 64 - lg;
    let byte_mask = (table_size * 8 - 1) as u64;
    let src = format!(
        ".data\nkeys:\n{}\nmult: .quad {}\ntable: .space {}\n.text\n\
main:   la   r17, table\n\
        la   r14, mult\n\
        ld   r14, 0(r14)\n\
        li   r16, {byte_mask}\n\
        la   r10, keys\n\
        li   r11, {n}\n\
ins:    ld   r2, 0(r10)\n\
        mul  r4, r2, r14\n\
        srli r4, r4, {shift}\n\
        slli r5, r4, 3\n\
probe:  add  r6, r17, r5\n\
        ld   r7, 0(r6)\n\
        beqz r7, free\n\
        addi r5, r5, 8\n\
        and  r5, r5, r16\n\
        b    probe\n\
free:   sd   r2, 0(r6)\n\
        addi r10, r10, 8\n\
        subi r11, r11, 1\n\
        bgtz r11, ins\n\
        la   r10, keys\n\
        li   r11, {n}\n\
        li   r20, 0\n\
        li   r21, 0\n\
lkp:    ld   r2, 0(r10)\n\
        mul  r4, r2, r14\n\
        srli r4, r4, {shift}\n\
        slli r5, r4, 3\n\
lprobe: add  r6, r17, r5\n\
        ld   r7, 0(r6)\n\
        addi r21, r21, 1\n\
        beq  r7, r2, found\n\
        addi r5, r5, 8\n\
        and  r5, r5, r16\n\
        b    lprobe\n\
found:  addi r20, r20, 1\n\
        addi r10, r10, 8\n\
        subi r11, r11, 1\n\
        bgtz r11, lkp\n\
        halt\n",
        quad_list(&keys),
        mult as i64,
        table_size * 8,
    );
    Workload {
        name: "hash",
        description: "open-addressing hash table: multiplicative hashing, probe loops",
        source: src,
        checks: vec![
            Check::IntReg {
                reg: 20,
                expected: n as u64,
            },
            Check::IntReg {
                reg: 21,
                expected: probes,
            },
        ],
        max_steps: 5_000_000,
    }
}

/// Dense integer matrix multiply with full index arithmetic.
fn matmul(scale: Scale) -> Workload {
    let n = scale.pick(4, 8, 20);
    let mut rng = SmallRng::seed_from_u64(0x4D57_0004);
    let a: Vec<u64> = (0..n * n).map(|_| rng.random_range(0..1000)).collect();
    let b: Vec<u64> = (0..n * n).map(|_| rng.random_range(0..1000)).collect();
    let mut csum = 0u64;
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0u64;
            for k in 0..n {
                acc = acc.wrapping_add(a[i * n + k].wrapping_mul(b[k * n + j]));
            }
            csum = csum.wrapping_add(acc);
        }
    }

    let src = format!(
        ".data\nma:\n{}\nmb:\n{}\nmc: .space {}\n.text\n\
main:   la   r20, ma\n\
        la   r21, mb\n\
        la   r22, mc\n\
        li   r23, {n}\n\
        li   r24, 0\n\
        li   r1, 0\n\
iloop:  li   r2, 0\n\
jloop:  li   r4, 0\n\
        li   r3, 0\n\
kloop:  mul  r5, r1, r23\n\
        add  r5, r5, r3\n\
        slli r5, r5, 3\n\
        add  r5, r5, r20\n\
        ld   r6, 0(r5)\n\
        mul  r7, r3, r23\n\
        add  r7, r7, r2\n\
        slli r7, r7, 3\n\
        add  r7, r7, r21\n\
        ld   r8, 0(r7)\n\
        mul  r9, r6, r8\n\
        add  r4, r4, r9\n\
        addi r3, r3, 1\n\
        blt  r3, r23, kloop\n\
        mul  r5, r1, r23\n\
        add  r5, r5, r2\n\
        slli r5, r5, 3\n\
        add  r5, r5, r22\n\
        sd   r4, 0(r5)\n\
        add  r24, r24, r4\n\
        addi r2, r2, 1\n\
        blt  r2, r23, jloop\n\
        addi r1, r1, 1\n\
        blt  r1, r23, iloop\n\
        halt\n",
        quad_list(&a),
        quad_list(&b),
        n * n * 8,
    );
    Workload {
        name: "matmul",
        description: "integer matrix multiply: multiplier pressure, regular loads",
        source: src,
        checks: vec![Check::IntReg {
            reg: 24,
            expected: csum,
        }],
        max_steps: 5_000_000,
    }
}

/// Rotate-and-xor checksum over a byte buffer, several passes.
fn crc(scale: Scale) -> Workload {
    let n = scale.pick(128, 1024, 4096);
    let passes = scale.pick(2, 2, 4) as u64;
    let mut rng = SmallRng::seed_from_u64(0xC257_0005);
    let buf: Vec<u8> = (0..n).map(|_| rng.random()).collect();
    let mut c = 0u64;
    for _ in 0..passes {
        for &b in &buf {
            c = c.rotate_left(1) ^ b as u64;
        }
    }

    let src = format!(
        ".data\nbuf:\n{}\n.text\n\
main:   li   r9, {passes}\n\
        li   r4, 0\n\
pass:   la   r1, buf\n\
        li   r2, {n}\n\
bloop:  lbu  r3, 0(r1)\n\
        slli r5, r4, 1\n\
        srli r6, r4, 63\n\
        or   r5, r5, r6\n\
        xor  r4, r5, r3\n\
        addi r1, r1, 1\n\
        subi r2, r2, 1\n\
        bgtz r2, bloop\n\
        subi r9, r9, 1\n\
        bgtz r9, pass\n\
        halt\n",
        byte_list(&buf)
    );
    Workload {
        name: "crc",
        description: "rotate-xor checksum: tight serial dependence on one register",
        source: src,
        checks: vec![Check::IntReg {
            reg: 4,
            expected: c,
        }],
        max_steps: 5_000_000,
    }
}

/// Naive doubly-recursive Fibonacci: call/return pressure for the RAS.
fn fib(scale: Scale) -> Workload {
    let n = scale.pick(8, 13, 18) as u64;
    fn f(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            f(n - 1) + f(n - 2)
        }
    }
    let expected = f(n);
    let src = format!(
        ".text\n\
main:   li   r1, {n}\n\
        call fib\n\
        halt\n\
fib:    li   r3, 2\n\
        blt  r1, r3, fbase\n\
        subi sp, sp, 24\n\
        sd   ra, 0(sp)\n\
        sd   r1, 8(sp)\n\
        subi r1, r1, 1\n\
        call fib\n\
        sd   r2, 16(sp)\n\
        ld   r1, 8(sp)\n\
        subi r1, r1, 2\n\
        call fib\n\
        ld   r3, 16(sp)\n\
        add  r2, r2, r3\n\
        ld   ra, 0(sp)\n\
        addi sp, sp, 24\n\
        ret\n\
fbase:  mov  r2, r1\n\
        ret\n"
    );
    Workload {
        name: "fib",
        description: "naive recursive fibonacci: deep call trees, return-address stack",
        source: src,
        checks: vec![Check::IntReg { reg: 2, expected }],
        max_steps: 5_000_000,
    }
}

/// Breadth-first search over a random directed graph, counting reachable
/// nodes and summing depths.
fn bfs(scale: Scale) -> Workload {
    let n = scale.pick(16, 128, 1200);
    let deg = 3usize;
    let mut rng = SmallRng::seed_from_u64(0xBF57_0006);
    let mut adj: Vec<Vec<u64>> = Vec::with_capacity(n);
    for _ in 0..n {
        let nbrs: Vec<u64> = (0..deg).map(|_| rng.random_range(0..n as u64)).collect();
        adj.push(nbrs);
    }
    // Mirror BFS.
    let mut visited = vec![false; n];
    let mut dist = vec![0u64; n];
    let mut queue = std::collections::VecDeque::new();
    visited[0] = true;
    queue.push_back(0usize);
    let mut vcount = 1u64;
    let mut dsum = 0u64;
    while let Some(u) = queue.pop_front() {
        dsum += dist[u];
        for &v in &adj[u] {
            let v = v as usize;
            if !visited[v] {
                visited[v] = true;
                dist[v] = dist[u] + 1;
                vcount += 1;
                queue.push_back(v);
            }
        }
    }

    // Flatten adjacency: offsets are byte offsets into `adj`.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut flat = Vec::new();
    let mut off = 0u64;
    for nbrs in &adj {
        offsets.push(off);
        flat.extend_from_slice(nbrs);
        off += 8 * nbrs.len() as u64;
    }
    offsets.push(off);

    let src = format!(
        ".data\nadjoff:\n{}\nadj:\n{}\n\
visited: .space {n}\n\
.align 8\n\
queue: .space {}\n\
dist: .space {}\n\
.text\n\
main:   la   r1, visited\n\
        li   r2, 1\n\
        sb   r2, 0(r1)\n\
        la   r3, queue\n\
        sd   r0, 0(r3)\n\
        li   r4, 0\n\
        li   r5, 1\n\
        li   r20, 1\n\
        li   r21, 0\n\
        la   r24, dist\n\
        la   r25, adjoff\n\
        la   r14, adj\n\
        la   r26, visited\n\
bfsl:   bge  r4, r5, done\n\
        slli r6, r4, 3\n\
        add  r6, r6, r3\n\
        ld   r7, 0(r6)\n\
        addi r4, r4, 1\n\
        slli r9, r7, 3\n\
        add  r8, r24, r9\n\
        ld   r10, 0(r8)\n\
        add  r21, r21, r10\n\
        add  r11, r25, r9\n\
        ld   r12, 0(r11)\n\
        ld   r13, 8(r11)\n\
nbr:    bge  r12, r13, bfsl\n\
        add  r15, r14, r12\n\
        ld   r16, 0(r15)\n\
        addi r12, r12, 8\n\
        add  r17, r26, r16\n\
        lbu  r18, 0(r17)\n\
        bnez r18, nbr\n\
        li   r18, 1\n\
        sb   r18, 0(r17)\n\
        addi r20, r20, 1\n\
        slli r22, r16, 3\n\
        add  r19, r24, r22\n\
        addi r23, r10, 1\n\
        sd   r23, 0(r19)\n\
        slli r22, r5, 3\n\
        add  r22, r22, r3\n\
        sd   r16, 0(r22)\n\
        addi r5, r5, 1\n\
        b    nbr\n\
done:   halt\n",
        quad_list(&offsets),
        quad_list(&flat),
        8 * n,
        8 * n,
    );
    Workload {
        name: "bfs",
        description: "breadth-first search: irregular loads, queue traffic, branchy inner loop",
        source: src,
        checks: vec![
            Check::IntReg {
                reg: 20,
                expected: vcount,
            },
            Check::IntReg {
                reg: 21,
                expected: dsum,
            },
        ],
        max_steps: 5_000_000,
    }
}

/// Naive substring search over a small-alphabet text.
fn strsearch(scale: Scale) -> Workload {
    let t = scale.pick(256, 1024, 8192);
    let p = 3usize;
    let mut rng = SmallRng::seed_from_u64(0x5757_0007);
    let text: Vec<u8> = (0..t).map(|_| rng.random_range(b'a'..b'a' + 3)).collect();
    let pat: Vec<u8> = (0..p).map(|_| rng.random_range(b'a'..b'a' + 3)).collect();
    let mut matches = 0u64;
    for i in 0..=(t - p) {
        if &text[i..i + p] == pat.as_slice() {
            matches += 1;
        }
    }

    let outer = t - p + 1;
    let src = format!(
        ".data\ntext:\n{}\npat:\n{}\n.text\n\
main:   la   r1, text\n\
        li   r2, {outer}\n\
        li   r4, 0\n\
outer:  mov  r5, r1\n\
        la   r6, pat\n\
        li   r7, {p}\n\
inner:  lbu  r8, 0(r5)\n\
        lbu  r9, 0(r6)\n\
        bne  r8, r9, fail\n\
        addi r5, r5, 1\n\
        addi r6, r6, 1\n\
        subi r7, r7, 1\n\
        bgtz r7, inner\n\
        addi r4, r4, 1\n\
fail:   addi r1, r1, 1\n\
        subi r2, r2, 1\n\
        bgtz r2, outer\n\
        halt\n",
        byte_list(&text),
        byte_list(&pat)
    );
    Workload {
        name: "strsearch",
        description: "naive substring search: short inner loops, hard-to-predict exits",
        source: src,
        checks: vec![Check::IntReg {
            reg: 4,
            expected: matches,
        }],
        max_steps: 5_000_000,
    }
}

/// Run-length encoding of a byte buffer with biased runs.
fn rle(scale: Scale) -> Workload {
    let n = scale.pick(128, 1024, 8192);
    let mut rng = SmallRng::seed_from_u64(0x2157_0008);
    let mut buf = Vec::with_capacity(n);
    let mut cur: u8 = rng.random_range(0..4);
    while buf.len() < n {
        let run = rng.random_range(1..6usize).min(n - buf.len());
        buf.extend(std::iter::repeat_n(cur, run));
        cur = (cur + rng.random_range(1..4u8)) % 4;
    }
    // Mirror.
    let mut out_len = 0u64;
    let mut prev = buf[0];
    let mut _runlen = 0u64;
    for &b in &buf {
        if b != prev {
            out_len += 2;
            prev = b;
            _runlen = 1;
        } else {
            _runlen += 1;
        }
    }
    out_len += 2;

    let src = format!(
        ".data\nbuf:\n{}\nout: .space {}\n.text\n\
main:   la   r1, buf\n\
        li   r2, {n}\n\
        la   r3, out\n\
        lbu  r5, 0(r1)\n\
        li   r6, 0\n\
        li   r4, 0\n\
rloop:  lbu  r7, 0(r1)\n\
        bne  r7, r5, flush\n\
        addi r6, r6, 1\n\
        b    radv\n\
flush:  sb   r5, 0(r3)\n\
        sb   r6, 1(r3)\n\
        addi r3, r3, 2\n\
        addi r4, r4, 2\n\
        mov  r5, r7\n\
        li   r6, 1\n\
radv:   addi r1, r1, 1\n\
        subi r2, r2, 1\n\
        bgtz r2, rloop\n\
        sb   r5, 0(r3)\n\
        sb   r6, 1(r3)\n\
        addi r4, r4, 2\n\
        halt\n",
        byte_list(&buf),
        2 * n + 4,
    );
    Workload {
        name: "rle",
        description: "run-length encoding: byte stores, data-dependent control",
        source: src,
        checks: vec![Check::IntReg {
            reg: 4,
            expected: out_len,
        }],
        max_steps: 5_000_000,
    }
}

/// Kernighan popcount over an array of quadwords.
fn bitops(scale: Scale) -> Workload {
    let n = scale.pick(32, 256, 2048);
    let mut rng = SmallRng::seed_from_u64(0xB157_0009);
    let arr: Vec<u64> = (0..n).map(|_| rng.random()).collect();
    let expected: u64 = arr.iter().map(|v| v.count_ones() as u64).sum();

    let src = format!(
        ".data\narr:\n{}\n.text\n\
main:   la   r1, arr\n\
        li   r2, {n}\n\
        li   r4, 0\n\
bloop:  ld   r3, 0(r1)\n\
kern:   beqz r3, next\n\
        subi r5, r3, 1\n\
        and  r3, r3, r5\n\
        addi r4, r4, 1\n\
        b    kern\n\
next:   addi r1, r1, 8\n\
        subi r2, r2, 1\n\
        bgtz r2, bloop\n\
        halt\n",
        quad_list(&arr)
    );
    Workload {
        name: "bitops",
        description: "kernighan popcount: short data-dependent inner loops",
        source: src,
        checks: vec![Check::IntReg { reg: 4, expected }],
        max_steps: 5_000_000,
    }
}

/// Floating-point mix: dot product plus a Horner polynomial per element,
/// ending with a divide.
fn fpmix(scale: Scale) -> Workload {
    let n = scale.pick(32, 256, 1024);
    let mut rng = SmallRng::seed_from_u64(0xF957_000A);
    let a: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    let b: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    let (c3, c2, c1, c0) = (0.25f64, -0.5f64, 1.5f64, 0.75f64);
    let mut dot = 0.0f64;
    let mut poly = 0.0f64;
    for i in 0..n {
        dot += a[i] * b[i];
        let x = a[i];
        let y = ((c3 * x + c2) * x + c1) * x + c0;
        poly += y;
    }
    let quot = dot / poly;

    let src = format!(
        ".data\nfa:\n{}\nfb:\n{}\nconsts: .double {c3:?}, {c2:?}, {c1:?}, {c0:?}\n\
out: .space 24\n.text\n\
main:   la   r1, fa\n\
        la   r2, fb\n\
        li   r3, {n}\n\
        la   r4, consts\n\
        fld  f20, 0(r4)\n\
        fld  f21, 8(r4)\n\
        fld  f22, 16(r4)\n\
        fld  f23, 24(r4)\n\
floop:  fld  f1, 0(r1)\n\
        fld  f2, 0(r2)\n\
        fmul f3, f1, f2\n\
        fadd f10, f10, f3\n\
        fmul f4, f20, f1\n\
        fadd f4, f4, f21\n\
        fmul f4, f4, f1\n\
        fadd f4, f4, f22\n\
        fmul f4, f4, f1\n\
        fadd f4, f4, f23\n\
        fadd f11, f11, f4\n\
        addi r1, r1, 8\n\
        addi r2, r2, 8\n\
        subi r3, r3, 1\n\
        bgtz r3, floop\n\
        fdiv f12, f10, f11\n\
        la   r5, out\n\
        fsd  f10, 0(r5)\n\
        fsd  f11, 8(r5)\n\
        fsd  f12, 16(r5)\n\
        halt\n",
        double_list(&a),
        double_list(&b),
    );
    Workload {
        name: "fpmix",
        description: "dot product + Horner polynomial: FP adder/multiplier pipelines",
        source: src,
        checks: vec![
            Check::MemU64 {
                symbol: "out".into(),
                expected: dot.to_bits(),
            },
            Check::MemU64 {
                symbol: "out".into(),
                expected: dot.to_bits(),
            },
        ],
        max_steps: 5_000_000,
    }
    .with_extra_mem_checks(poly, quot)
}

impl Workload {
    /// Internal helper for `fpmix`: replaces the placeholder checks with
    /// the three out-slot checks (dot, poly, quotient).
    fn with_extra_mem_checks(mut self, poly: f64, quot: f64) -> Self {
        let dot = match &self.checks[0] {
            Check::MemU64 { expected, .. } => *expected,
            _ => unreachable!(),
        };
        self.checks = vec![
            Check::MemU64 {
                symbol: "out".into(),
                expected: dot,
            },
            Check::MemU64 {
                symbol: "out_poly".into(),
                expected: poly.to_bits(),
            },
            Check::MemU64 {
                symbol: "out_quot".into(),
                expected: quot.to_bits(),
            },
        ];
        // The checks address `out + 8` and `out + 16` via dedicated
        // labels; patch the data directive to define them.
        self.source = self.source.replace(
            "out: .space 24",
            "out: .space 8\nout_poly: .space 8\nout_quot: .space 8",
        );
        self
    }
}

/// Jump-table dispatch loop: indirect branches through a code-label
/// table, with a bounded accumulator.
fn dispatch(scale: Scale) -> Workload {
    let n = scale.pick(32, 512, 4096);
    let mut rng = SmallRng::seed_from_u64(0xD157_000B);
    let ops: Vec<u64> = (0..n).map(|_| rng.random_range(0..4)).collect();
    let mut acc = 1u64;
    for &op in &ops {
        acc = match op {
            0 => acc + 7,
            1 => acc ^ (acc << 1),
            2 => acc.wrapping_mul(3) + 1,
            _ => (acc >> 1) ^ 0x5a5,
        };
        acc &= 0x7fff;
    }

    let src = format!(
        ".data\nopsarr:\n{}\njt: .quad case0, case1, case2, case3\n.text\n\
main:   la   r10, opsarr\n\
        li   r11, {n}\n\
        li   r4, 1\n\
        li   r13, 3\n\
        la   r12, jt\n\
dloop:  ld   r1, 0(r10)\n\
        slli r2, r1, 3\n\
        add  r2, r2, r12\n\
        ld   r3, 0(r2)\n\
        jr   r3\n\
case0:  addi r4, r4, 7\n\
        b    next\n\
case1:  slli r5, r4, 1\n\
        xor  r4, r4, r5\n\
        b    next\n\
case2:  mul  r5, r4, r13\n\
        addi r4, r5, 1\n\
        b    next\n\
case3:  srli r5, r4, 1\n\
        li   r6, 0x5a5\n\
        xor  r4, r5, r6\n\
next:   andi r4, r4, 0x7fff\n\
        addi r10, r10, 8\n\
        subi r11, r11, 1\n\
        bgtz r11, dloop\n\
        halt\n",
        quad_list(&ops)
    );
    Workload {
        name: "dispatch",
        description: "jump-table interpreter loop: indirect branch prediction stress",
        source: src,
        checks: vec![Check::IntReg {
            reg: 4,
            expected: acc,
        }],
        max_steps: 5_000_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_pass_their_checks_at_tiny_scale() {
        for w in suite(Scale::Tiny) {
            w.run_checks()
                .unwrap_or_else(|e| panic!("kernel `{}` failed: {e}", w.name));
        }
    }

    #[test]
    fn all_kernels_pass_their_checks_at_small_scale() {
        for w in suite(Scale::Small) {
            w.run_checks()
                .unwrap_or_else(|e| panic!("kernel `{}` failed: {e}", w.name));
        }
    }

    #[test]
    fn suite_has_twelve_distinct_kernels() {
        let s = suite(Scale::Tiny);
        assert_eq!(s.len(), 12);
        let mut names: Vec<&str> = s.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn workload_by_name_finds_kernels() {
        assert!(workload_by_name("qsort", Scale::Tiny).is_some());
        assert!(workload_by_name("nbody", Scale::Tiny).is_some());
        assert!(workload_by_name("nonesuch", Scale::Tiny).is_none());
    }

    #[test]
    fn every_lookup_builds_the_suites_kernels() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Default] {
            let all: Vec<Workload> = suite(scale)
                .into_iter()
                .chain(crate::extended_suite(scale))
                .collect();
            assert_eq!(all.len(), 16);
            let names: Vec<&str> = kernel_names().collect();
            assert_eq!(names, all.iter().map(|w| w.name).collect::<Vec<_>>());
            for w in &all {
                assert_eq!(workload_by_name(w.name, scale).as_ref(), Some(w));
            }
            let of = |name: &str| all.iter().find(|w| w.name == name).unwrap();
            for (a, b) in kernel_pairs(scale) {
                assert_eq!(&a, of(a.name));
                assert_eq!(&b, of(b.name));
            }
            for quad in kernel_quads(scale) {
                for w in &quad {
                    assert_eq!(w, of(w.name));
                }
            }
        }
    }

    #[test]
    fn scales_change_problem_size() {
        let tiny = workload_by_name("crc", Scale::Tiny).unwrap();
        let full = workload_by_name("crc", Scale::Default).unwrap();
        assert!(full.source.len() > tiny.source.len());
    }

    #[test]
    fn kernels_execute_substantial_instruction_counts() {
        // The timing experiments need non-trivial dynamic lengths.
        for w in suite(Scale::Tiny) {
            let m = w.run_checks().unwrap();
            assert!(
                m.instruction_count() > 200,
                "kernel `{}` ran only {} instructions",
                w.name,
                m.instruction_count()
            );
        }
    }
}
