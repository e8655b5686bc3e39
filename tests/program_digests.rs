//! Program digests: every bundled program assembles to the same image.
//!
//! The kernel generators and the assembler are set-up code, and both
//! are tuned for speed. The golden snapshots pin the simulated timing of
//! the Tiny kernels only; this table pins the assembled `Program` of all
//! 16 kernels at every scale, and of the synthetic presets in the two
//! shapes that run them: the layered benchmark's (260 blocks of 1000
//! instructions, seed 1) and the `synthetic` experiment's (seed 11).
//! Each row records the text length in instructions, the data length in
//! bytes, the entry address and a 64-bit FNV-1a digest of the program's
//! `Debug` output, which spells out every instruction, data byte and
//! symbol.
//!
//! To regenerate after an *intentional* change to a generator or to the
//! assembler's output:
//!
//! ```text
//! UBRC_BLESS=1 cargo test --release --test program_digests
//! ```
//!
//! and justify the diff of `program_digests.txt` in the change.

use std::fmt::{self, Write as _};
use ubrc::isa::Program;
use ubrc::workloads::synthetic::SyntheticSpec;
use ubrc::workloads::{extended_suite, suite, Scale, Workload};

const TABLE: &str = include_str!("program_digests.txt");

const HEADER: &str = "# program text_insts data_bytes entry fnv1a64(Debug)\n";

/// 64-bit FNV-1a over everything written to it.
struct Fnv1a(u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn row(name: &str, program: &Program) -> String {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(h, "{program:?}").expect("hashing cannot fail");
    format!(
        "{name} {} {} {:#x} {:016x}",
        program.text.len(),
        program.data.len(),
        program.entry,
        h.0
    )
}

/// Every bundled program, named as its row: `KERNEL/SCALE` for the 16
/// kernels, `synthetic/PRESET/SHAPE` for the generated ones.
fn programs() -> Vec<(String, Workload)> {
    let mut out = Vec::new();
    for (scale, tag) in [
        (Scale::Tiny, "tiny"),
        (Scale::Small, "small"),
        (Scale::Default, "default"),
    ] {
        for w in suite(scale).into_iter().chain(extended_suite(scale)) {
            out.push((format!("{}/{tag}", w.name), w));
        }
    }
    let presets = ["single-use-heavy", "high-use", "dead-value-heavy"];
    let specs: [fn(u64) -> SyntheticSpec; 3] = [
        SyntheticSpec::single_use_heavy,
        SyntheticSpec::high_use,
        SyntheticSpec::dead_value_heavy,
    ];
    for (preset, spec) in presets.into_iter().zip(specs) {
        let bench = SyntheticSpec {
            blocks: 260,
            block_len: 1000,
            ..spec(1)
        };
        out.push((format!("synthetic/{preset}/bench"), bench.build()));
        out.push((format!("synthetic/{preset}/experiment"), spec(11).build()));
    }
    out
}

fn rows() -> Vec<String> {
    programs()
        .iter()
        .map(|(name, w)| {
            let program = w
                .assemble()
                .unwrap_or_else(|e| panic!("{name} does not assemble: {e}"));
            row(name, &program)
        })
        .collect()
}

#[test]
fn every_bundled_program_matches_its_digest() {
    let rows = rows();
    if std::env::var_os("UBRC_BLESS").is_some() {
        let mut out = String::from(HEADER);
        for r in &rows {
            out.push_str(r);
            out.push('\n');
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/program_digests.txt");
        std::fs::write(path, out).expect("write digests");
        return;
    }
    let table: Vec<&str> = TABLE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    assert_eq!(
        table.len(),
        rows.len(),
        "program count changed; rebless if intentional"
    );
    for (want, got) in table.iter().zip(&rows) {
        assert_eq!(
            *want, got,
            "assembled program changed; rebless only if that is intentional"
        );
    }
}
