//! Named configurations: one table of bases and one
//! `BASE[,key=value]*` spec parser (`impl FromStr for SimConfig`).
//!
//! Every harness names its design points through this module — the
//! golden test, the experiments, the `--json` trajectory and
//! `simulate --config` — so each design point, and each replacement
//! scheme's index pairing, is written once, here. A spec such as
//! `lru,ways=4,partition=dyncap` starts from the base's [`SimConfig`]
//! and applies each key in turn. The parser rejects an unknown base, an
//! unknown or repeated key and a bad value with a message that names
//! the key and lists what it accepts. Machine constraints — cache
//! geometry, partition divisibility, fault protection — are left to
//! the typed [`crate::ConfigError`]s of
//! [`crate::Simulator::try_new_smt`], so one parsed spec can be valid
//! on one thread count and rejected on another.
//!
//! Fields no key covers are set in Rust on a parsed base.

use crate::config::{FetchPolicy, RegStorage, SimConfig};
use crate::inject::{FaultKind, FaultPlan};
use std::str::FromStr;
use ubrc_core::{
    CachePartition, EpochAdapt, IndexPolicy, ProtectionConfig, RegCacheConfig, TwoLevelConfig,
};

/// The named bases, in the order messages list them.
const BASES: [&str; 8] = [
    "use-based",
    "lru",
    "non-bypass",
    "ehc",
    "rf-1",
    "rf-2",
    "rf-3",
    "two-level",
];

/// The register storage of a named base: the paper's three caching
/// schemes and the expected-hit-count scorer at 64 entries × 2 ways
/// over a 2-cycle backing file, each with the indexing it is evaluated
/// under (round-robin for the reference designs, filtered round-robin
/// for use-based, §5.4–§5.5); the 1–3-cycle monolithic files; and the
/// optimistic two-level file with a 96-entry L1 (a 64-entry cache
/// + 32, §5.5).
fn base(name: &str) -> Option<RegStorage> {
    let cached = |cache, index| RegStorage::Cached {
        cache,
        index,
        backing_read: 2,
        backing_write: 2,
    };
    let mono = |latency| RegStorage::Monolithic {
        read_latency: latency,
        write_latency: latency,
    };
    Some(match name {
        "use-based" => cached(
            RegCacheConfig::use_based(64, 2),
            IndexPolicy::FilteredRoundRobin,
        ),
        "lru" => cached(RegCacheConfig::lru(64, 2), IndexPolicy::RoundRobin),
        "non-bypass" => cached(RegCacheConfig::non_bypass(64, 2), IndexPolicy::RoundRobin),
        "ehc" => cached(
            RegCacheConfig::expected_hit_count(64, 2),
            IndexPolicy::FilteredRoundRobin,
        ),
        "rf-1" => mono(1),
        "rf-2" => mono(2),
        "rf-3" => mono(3),
        "two-level" => RegStorage::TwoLevel(TwoLevelConfig::optimistic(96)),
        _ => return None,
    })
}

const INDEX: [(&str, IndexPolicy); 5] = [
    ("standard", IndexPolicy::Standard),
    ("round-robin", IndexPolicy::RoundRobin),
    ("minimum", IndexPolicy::Minimum),
    ("filtered", IndexPolicy::FilteredRoundRobin),
    ("min-load", IndexPolicy::MinLoad),
];

/// The SMT partitions. `dyncap` recomputes UMON-driven occupancy quotas
/// every 128 cycles with a floor of 4 entries per thread; `dynway`
/// reassigns whole ways every 128 cycles.
const PARTITION: [(&str, CachePartition); 5] = [
    ("shared", CachePartition::Shared),
    ("waypart", CachePartition::WayPartition),
    ("occcap", CachePartition::OccupancyCap),
    (
        "dyncap",
        CachePartition::DynamicCap {
            epoch_cycles: 128,
            min_cap: 4,
        },
    ),
    ("dynway", CachePartition::DynamicWay { epoch_cycles: 128 }),
];

/// Adaptive epoch pacing: 32–512-cycle epochs, agreement within an L1
/// distance of 2.
const ADAPT: [(&str, Option<EpochAdapt>); 2] = [
    ("off", None),
    (
        "on",
        Some(EpochAdapt {
            min_cycles: 32,
            max_cycles: 512,
            band: 2,
        }),
    ),
];

const SWITCH: [(&str, bool); 2] = [("off", false), ("on", true)];

const FETCH: [(&str, FetchPolicy); 3] = [
    ("icount", FetchPolicy::Icount),
    ("round-robin", FetchPolicy::RoundRobin),
    ("icount28", FetchPolicy::Icount28),
];

/// The recoverable fault classes a `fault=KIND:PERIOD:SEED` plan arms.
const FAULT: [(&str, FaultKind); 3] = [
    ("cache-data", FaultKind::FlipCacheData),
    ("use-counter", FaultKind::FlipUseCounter),
    ("backing-word", FaultKind::FlipBackingWord),
];

/// Every key, in the order messages list them.
const KEYS: [&str; 10] = [
    "entries",
    "ways",
    "index",
    "backing",
    "partition",
    "adapt",
    "classify",
    "protect",
    "fault",
    "fetch",
];

/// What `key` accepts, for messages.
fn accepts(key: &str) -> String {
    fn names<T>(table: &[(&str, T)]) -> String {
        let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
        format!("one of {}", names.join(", "))
    }
    match key {
        "index" => names(&INDEX),
        "partition" => names(&PARTITION),
        "adapt" => names(&ADAPT),
        "classify" | "protect" => names(&SWITCH),
        "fetch" => names(&FETCH),
        "fault" => format!("KIND:PERIOD:SEED with KIND {}", names(&FAULT)),
        _ => "a non-negative integer".to_string(),
    }
}

fn bad_value(key: &str, value: &str) -> String {
    format!("bad value `{value}` for `{key}`: expected {}", accepts(key))
}

fn pick<T: Copy>(key: &str, value: &str, table: &[(&str, T)]) -> Result<T, String> {
    table
        .iter()
        .find(|(n, _)| *n == value)
        .map(|&(_, v)| v)
        .ok_or_else(|| bad_value(key, value))
}

fn number<T: FromStr>(key: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| bad_value(key, value))
}

fn fault(value: &str) -> Result<FaultPlan, String> {
    let bad = || bad_value("fault", value);
    let parts: Vec<&str> = value.split(':').collect();
    let [kind, period, seed] = parts[..] else {
        return Err(bad());
    };
    let kind = pick("fault", kind, &FAULT).map_err(|_| bad())?;
    let period = period.parse().map_err(|_| bad())?;
    let seed = seed.parse().map_err(|_| bad())?;
    Ok(FaultPlan::periodic(seed, period, kind))
}

/// Applies one `key=value` to a config built from base `name`.
fn apply(cfg: &mut SimConfig, name: &str, key: &str, value: &str) -> Result<(), String> {
    match (&mut cfg.storage, key) {
        (_, "fetch") => cfg.fetch_policy = pick(key, value, &FETCH)?,
        (_, "fault") => cfg.fault_plan = Some(fault(value)?),
        (
            RegStorage::Cached {
                cache,
                index,
                backing_read,
                backing_write,
            },
            _,
        ) => match key {
            "entries" => cache.entries = number(key, value)?,
            "ways" => cache.ways = number(key, value)?,
            "index" => *index = pick(key, value, &INDEX)?,
            "backing" => {
                *backing_read = number(key, value)?;
                *backing_write = *backing_read;
            }
            "partition" => cache.partition = pick(key, value, &PARTITION)?,
            "adapt" => cache.epoch_adapt = pick(key, value, &ADAPT)?,
            "classify" => cache.classify_misses = pick(key, value, &SWITCH)?,
            // Parity is only useful with the recovery that acts on it,
            // so one switch sets both.
            "protect" => {
                let on = pick(key, value, &SWITCH)?;
                cache.protection = ProtectionConfig {
                    cache_parity: on,
                    counter_parity: on,
                    backing_parity: on,
                };
                cfg.recovery.enabled = on;
            }
            _ => unreachable!("`{key}` is checked against KEYS"),
        },
        (RegStorage::TwoLevel(tl), "entries") => {
            *tl = TwoLevelConfig {
                l2_latency: tl.l2_latency,
                ..TwoLevelConfig::optimistic(number(key, value)?)
            }
        }
        (RegStorage::TwoLevel(tl), "backing") => tl.l2_latency = number(key, value)?,
        _ => {
            return Err(format!(
                "key `{key}` does not apply to base `{name}`: a monolithic file \
                 takes only fetch and fault, and two-level also entries and backing"
            ))
        }
    }
    Ok(())
}

/// Parses `BASE[,key=value]*`.
///
/// Bases: `use-based` (the paper's design point, equal to
/// [`SimConfig::paper_default`]), `lru`, `non-bypass`, `ehc`, `rf-1`,
/// `rf-2`, `rf-3` and `two-level`. Keys: `entries`, `ways`, `index`,
/// `backing` (backing-file, or two-level L2, latency), `partition`,
/// `adapt`, `classify`, `protect` (full parity plus machine-check
/// recovery), `fault` (`KIND:PERIOD:SEED`, a periodic fault plan) and
/// `fetch`. Each key may appear once.
///
/// ```
/// use ubrc_sim::SimConfig;
///
/// let cfg: SimConfig = "use-based".parse().unwrap();
/// assert_eq!(cfg, SimConfig::paper_default());
/// let err = "use-based,index=diagonal".parse::<SimConfig>().unwrap_err();
/// assert!(err.contains("`index`") && err.contains("min-load"), "{err}");
/// ```
impl FromStr for SimConfig {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        let mut parts = spec.split(',');
        let name = parts.next().unwrap_or_default();
        let storage = base(name).ok_or_else(|| {
            format!(
                "unknown base `{name}`: expected one of {}",
                BASES.join(", ")
            )
        })?;
        let mut cfg = SimConfig::table1(storage);
        let mut seen = Vec::new();
        for part in parts {
            let (key, value) = part.split_once('=').unwrap_or((part, ""));
            if !KEYS.contains(&key) {
                return Err(format!(
                    "unknown key `{key}`: expected one of {}",
                    KEYS.join(", ")
                ));
            }
            if seen.contains(&key) {
                return Err(format!(
                    "key `{key}` given twice: give it once, as {}",
                    accepts(key)
                ));
            }
            seen.push(key);
            apply(&mut cfg, name, key, value)?;
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(spec: &str) -> SimConfig {
        spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"))
    }

    fn cached(cache: RegCacheConfig, index: IndexPolicy) -> SimConfig {
        SimConfig::table1(RegStorage::Cached {
            cache,
            index,
            backing_read: 2,
            backing_write: 2,
        })
    }

    #[test]
    fn each_base_equals_the_typed_config_it_replaces() {
        let mono = |latency| {
            SimConfig::table1(RegStorage::Monolithic {
                read_latency: latency,
                write_latency: latency,
            })
        };
        for (spec, want) in [
            ("use-based", SimConfig::paper_default()),
            (
                "lru",
                cached(RegCacheConfig::lru(64, 2), IndexPolicy::RoundRobin),
            ),
            (
                "non-bypass",
                cached(RegCacheConfig::non_bypass(64, 2), IndexPolicy::RoundRobin),
            ),
            (
                "ehc",
                cached(
                    RegCacheConfig::expected_hit_count(64, 2),
                    IndexPolicy::FilteredRoundRobin,
                ),
            ),
            ("rf-1", mono(1)),
            ("rf-2", mono(2)),
            ("rf-3", mono(3)),
            (
                "two-level",
                SimConfig::table1(RegStorage::TwoLevel(TwoLevelConfig::optimistic(96))),
            ),
        ] {
            assert_eq!(parse(spec), want, "{spec}");
        }
        assert_eq!(BASES.map(|b| base(b).is_some()), [true; 8]);
    }

    #[test]
    fn keys_set_the_fields_they_name() {
        let mut cache = RegCacheConfig::lru(32, 4);
        cache.classify_misses = true;
        let mut want = SimConfig::table1(RegStorage::Cached {
            cache,
            index: IndexPolicy::Standard,
            backing_read: 5,
            backing_write: 5,
        });
        want.fetch_policy = FetchPolicy::Icount28;
        assert_eq!(
            parse("lru,entries=32,ways=4,index=standard,backing=5,classify=on,fetch=icount28"),
            want
        );
        let tl = parse("two-level,backing=4,entries=48");
        assert_eq!(
            tl.storage,
            RegStorage::TwoLevel(TwoLevelConfig {
                l2_latency: 4,
                ..TwoLevelConfig::optimistic(48)
            })
        );
    }

    #[test]
    fn dynamic_partitions_match_the_benchmark_helpers() {
        assert_eq!(
            parse("use-based,ways=4,partition=dyncap").storage,
            RegStorage::dynamic_cap(64, 4, 128, 4)
        );
        assert_eq!(
            parse("use-based,ways=8,partition=dynway").storage,
            RegStorage::dynamic_way(64, 8, 128)
        );
        let RegStorage::Cached { cache, .. } = parse("lru,partition=dynway,adapt=on").storage
        else {
            panic!("lru is cached");
        };
        assert!(cache.partition.is_dynamic());
        let adapt = cache.epoch_adapt.expect("adapt=on paces epochs");
        assert!(1 <= adapt.min_cycles && adapt.min_cycles <= adapt.max_cycles);
    }

    #[test]
    fn protect_and_fault_build_a_recoverable_campaign() {
        let cfg = parse("use-based,protect=on,fault=backing-word:400:9");
        let RegStorage::Cached { cache, .. } = cfg.storage else {
            panic!("use-based is cached");
        };
        assert_eq!(cache.protection, ProtectionConfig::full());
        assert_eq!(cfg.recovery, crate::RecoveryPolicy::enabled());
        assert_eq!(
            cfg.fault_plan,
            Some(FaultPlan::periodic(9, 400, FaultKind::FlipBackingWord))
        );
        assert_eq!(parse("use-based,protect=off"), SimConfig::paper_default());
    }

    #[test]
    fn mistakes_name_the_key_and_what_it_accepts() {
        let err = |spec: &str| spec.parse::<SimConfig>().unwrap_err();
        let e = err("lru-ish");
        assert!(
            e.contains("`lru-ish`") && e.contains("use-based, lru"),
            "{e}"
        );
        let e = err("use-based,colour=red");
        assert!(e.contains("`colour`") && e.contains("entries, ways"), "{e}");
        let e = err("use-based,index=diagonal");
        assert!(e.contains("`index`"), "{e}");
        for (name, _) in INDEX {
            assert!(e.contains(name), "{e}");
        }
        let e = err("use-based,ways=two");
        assert!(e.contains("`ways`") && e.contains("integer"), "{e}");
        let e = err("use-based,fault=cache-data:0");
        assert!(
            e.contains("`fault`") && e.contains("KIND:PERIOD:SEED"),
            "{e}"
        );
        let e = err("use-based,classify");
        assert!(e.contains("`classify`") && e.contains("on"), "{e}");
        let e = err("use-based,ways=4,ways=8");
        assert!(e.contains("`ways`") && e.contains("twice"), "{e}");
        let e = err("rf-3,ways=4");
        assert!(e.contains("`ways`") && e.contains("`rf-3`"), "{e}");
    }
}
