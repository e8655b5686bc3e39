//! Named configurations: one table of bases, one table of keys and one
//! `BASE[,key=value]*` spec parser (`impl FromStr for SimConfig`).
//!
//! Every harness names its design points through this module — the
//! golden test, the experiments, the `--json` trajectory and
//! `simulate --config` — so each design point, and each replacement
//! scheme's index pairing, is written once, here. A spec such as
//! `lru,ways=4,partition=dyncap` starts from the base's [`SimConfig`]
//! and sets each key's field. A key is declared once, in [`keys`], with
//! its name, the storage its bases build, what it accepts and the field
//! it sets; the messages are built from those declarations. The parser
//! rejects an unknown base, an unknown or repeated key, a key its base
//! does not take and a bad value with a message that names the key and
//! lists what it accepts. Machine constraints — cache geometry,
//! partition divisibility, fault protection — are left to the typed
//! [`crate::ConfigError`]s of [`crate::Simulator::try_new_smt`], so one
//! parsed spec can be valid on one thread count and rejected on another.
//!
//! Every field an experiment sweeps has a key. Only the observation
//! switches (`check`, `profile`, `trace_instructions`,
//! `collect_lifetimes`) and the Table 1 machine shape are set in Rust.

use crate::config::{BranchPredictorKind, FetchPolicy, FreelistPolicy, RegStorage, SimConfig};
use crate::inject::{FaultKind, FaultPlan};
use std::str::FromStr;
use ubrc_core::{CachePartition, EpochAdapt, IndexPolicy, RegCacheConfig, TwoLevelConfig};

/// The named bases, in the order messages list them: the paper's three
/// caching schemes and the expected-hit-count scorer at 64 entries × 2
/// ways over a 2-cycle backing file, each with the indexing it is
/// evaluated under (round-robin for the reference designs, filtered
/// round-robin for use-based, §5.4–§5.5); the 1–3-cycle monolithic
/// files; and the optimistic two-level file with a 96-entry L1 (a
/// 64-entry cache + 32, §5.5).
fn bases() -> [(&'static str, RegStorage); 8] {
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
    [
        (
            "use-based",
            cached(
                RegCacheConfig::use_based(64, 2),
                IndexPolicy::FilteredRoundRobin,
            ),
        ),
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
            RegStorage::TwoLevel(TwoLevelConfig::optimistic(96)),
        ),
    ]
}

/// The kind of register storage a base builds; a key names the kinds
/// whose bases take it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Monolithic,
    Cached,
    TwoLevel,
}

impl Kind {
    fn of(storage: &RegStorage) -> Kind {
        match storage {
            RegStorage::Monolithic { .. } => Kind::Monolithic,
            RegStorage::Cached { .. } => Kind::Cached,
            RegStorage::TwoLevel(_) => Kind::TwoLevel,
        }
    }
}

const EVERY: &[Kind] = &[Kind::Monolithic, Kind::Cached, Kind::TwoLevel];
const CACHED: &[Kind] = &[Kind::Cached];
const TWO_LEVEL: &[Kind] = &[Kind::TwoLevel];
/// Storage with a size and a second-level latency.
const SIZED: &[Kind] = &[Kind::Cached, Kind::TwoLevel];

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

const PREDICTOR: [(&str, BranchPredictorKind); 4] = [
    ("not-taken", BranchPredictorKind::NotTaken),
    ("bimodal", BranchPredictorKind::Bimodal),
    ("gshare", BranchPredictorKind::Gshare),
    ("yags", BranchPredictorKind::Yags),
];

/// The recoverable fault classes a `fault=KIND:PERIOD:SEED` plan arms.
const FAULT: [(&str, FaultKind); 3] = [
    ("cache-data", FaultKind::FlipCacheData),
    ("use-counter", FaultKind::FlipUseCounter),
    ("backing-word", FaultKind::FlipBackingWord),
];

/// An integer field's type, and what a key of that type accepts.
trait Integer: FromStr + 'static {
    const ACCEPTS: &'static str;
}

impl Integer for u8 {
    const ACCEPTS: &'static str = "an integer from 0 to 255";
}

impl Integer for u32 {
    const ACCEPTS: &'static str = "a non-negative integer";
}

impl Integer for usize {
    const ACCEPTS: &'static str = "a non-negative integer";
}

/// Reads a key's value and sets its field on a config whose storage the
/// key applies to; `None` if the value is malformed.
type Set = Box<dyn Fn(&mut SimConfig, &str) -> Option<()>>;

/// One spec key: its name, the storage kinds whose bases take it, what
/// it accepts, and how it sets its field.
struct Key {
    name: &'static str,
    on: &'static [Kind],
    accepts: String,
    set: Set,
}

impl Key {
    /// A key whose values `read` recognises and `set` stores.
    fn new<T: 'static>(
        name: &'static str,
        on: &'static [Kind],
        accepts: impl Into<String>,
        read: impl Fn(&str) -> Option<T> + 'static,
        set: fn(&mut SimConfig, T),
    ) -> Key {
        Key {
            name,
            on,
            accepts: accepts.into(),
            set: Box::new(move |cfg, value| read(value).map(|v| set(cfg, v))),
        }
    }

    /// A key whose value is an integer.
    fn integer<T: Integer>(
        name: &'static str,
        on: &'static [Kind],
        set: fn(&mut SimConfig, T),
    ) -> Key {
        Key::new(name, on, T::ACCEPTS, |v| v.parse().ok(), set)
    }

    /// A key whose value is one of `table`'s names.
    fn named<T: Copy + 'static>(
        name: &'static str,
        on: &'static [Kind],
        table: &'static [(&'static str, T)],
        set: fn(&mut SimConfig, T),
    ) -> Key {
        Key::new(name, on, one_of(table), move |v| pick(v, table), set)
    }
}

fn one_of<T>(table: &[(&str, T)]) -> String {
    let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
    format!("one of {}", names.join(", "))
}

fn pick<T: Copy>(value: &str, table: &[(&str, T)]) -> Option<T> {
    table.iter().find(|(n, _)| *n == value).map(|&(_, v)| v)
}

/// The register cache of a cached base; only cache keys reach it.
fn cache(cfg: &mut SimConfig) -> &mut RegCacheConfig {
    match &mut cfg.storage {
        RegStorage::Cached { cache, .. } => cache,
        _ => unreachable!("a cache key on a base without a cache"),
    }
}

/// The two-level file of the `two-level` base; only its keys reach it.
fn two_level(cfg: &mut SimConfig) -> &mut TwoLevelConfig {
    match &mut cfg.storage {
        RegStorage::TwoLevel(tl) => tl,
        _ => unreachable!("a two-level key on another base"),
    }
}

fn fault(value: &str) -> Option<FaultPlan> {
    let parts: Vec<&str> = value.split(':').collect();
    let [kind, period, seed] = parts[..] else {
        return None;
    };
    Some(FaultPlan::periodic(
        seed.parse().ok()?,
        period.parse().ok()?,
        pick(kind, &FAULT)?,
    ))
}

fn freelist(value: &str) -> Option<FreelistPolicy> {
    match value.split_once(':') {
        None if value == "partitioned" => Some(FreelistPolicy::Partitioned),
        Some(("shared", cap)) => Some(FreelistPolicy::Shared {
            cap: cap.parse().ok()?,
        }),
        _ => None,
    }
}

fn filter(value: &str) -> Option<(u8, u32)> {
    let (degree, skip) = value.split_once(':')?;
    Some((degree.parse().ok()?, skip.parse().ok()?))
}

/// Every key, in the order messages list them. Each sets only its own
/// fields, so the order of a spec's keys never changes its config.
fn keys() -> [Key; 23] {
    [
        Key::integer("entries", SIZED, |cfg, entries| match &mut cfg.storage {
            RegStorage::Cached { cache, .. } => cache.entries = entries,
            // The L1's transfer threshold follows its size.
            RegStorage::TwoLevel(tl) => {
                *tl = TwoLevelConfig {
                    l1_entries: entries,
                    free_threshold: TwoLevelConfig::optimistic(entries).free_threshold,
                    ..*tl
                }
            }
            RegStorage::Monolithic { .. } => unreachable!("`entries` on a monolithic file"),
        }),
        Key::integer("ways", CACHED, |cfg, ways| cache(cfg).ways = ways),
        Key::named("index", CACHED, &INDEX, |cfg, policy| {
            match &mut cfg.storage {
                RegStorage::Cached { index, .. } => *index = policy,
                _ => unreachable!("`index` on a base without a cache"),
            }
        }),
        // The backing file's read and write latency, or the two-level
        // file's L2 latency.
        Key::integer("backing", SIZED, |cfg, latency| match &mut cfg.storage {
            RegStorage::Cached {
                backing_read,
                backing_write,
                ..
            } => {
                *backing_read = latency;
                *backing_write = latency;
            }
            RegStorage::TwoLevel(tl) => tl.l2_latency = latency,
            RegStorage::Monolithic { .. } => unreachable!("`backing` on a monolithic file"),
        }),
        Key::integer("max-use", CACHED, |cfg, max| cache(cfg).max_use_count = max),
        Key::integer("unknown", CACHED, |cfg, n| cache(cfg).unknown_default = n),
        Key::integer("fill", CACHED, |cfg, n| cache(cfg).fill_default = n),
        Key::new(
            "filter",
            CACHED,
            "DEGREE:SKIP with DEGREE an integer from 0 to 255 and SKIP a non-negative integer",
            filter,
            |cfg, params| cfg.filter_params = Some(params),
        ),
        Key::integer("ports", CACHED, |cfg, ports| cfg.backing_read_ports = ports),
        Key::named("partition", CACHED, &PARTITION, |cfg, p| {
            cache(cfg).partition = p
        }),
        Key::named("adapt", CACHED, &ADAPT, |cfg, a| cache(cfg).epoch_adapt = a),
        Key::named("classify", CACHED, &SWITCH, |cfg, on| {
            cache(cfg).classify_misses = on
        }),
        // Full parity plus machine-check recovery.
        Key::named("protect", CACHED, &SWITCH, |cfg, on| {
            cache(cfg).protect = on
        }),
        // The degree-of-use predictor is the register cache's (§3.3).
        Key::integer("douse-sets", CACHED, |cfg, n| cfg.douse.sets = n),
        Key::integer("douse-conf", CACHED, |cfg, n| cfg.douse.conf_threshold = n),
        Key::integer("transfers", TWO_LEVEL, |cfg, n| {
            two_level(cfg).transfers_per_cycle = n
        }),
        Key::new(
            "fault",
            EVERY,
            format!("KIND:PERIOD:SEED with KIND {}", one_of(&FAULT)),
            fault,
            |cfg, plan| cfg.fault_plan = Some(plan),
        ),
        Key::named("fetch", EVERY, &FETCH, |cfg, p| cfg.fetch_policy = p),
        Key::new(
            "freelist",
            EVERY,
            "partitioned or shared:CAP with CAP a non-negative integer",
            freelist,
            |cfg, f| cfg.freelist = f,
        ),
        Key::integer("bypass", EVERY, |cfg, n| cfg.bypass_stages = n),
        Key::named("predictor", EVERY, &PREDICTOR, |cfg, p| {
            cfg.branch_predictor = p
        }),
        Key::named("load-spec", EVERY, &SWITCH, |cfg, on| {
            cfg.load_hit_speculation = on
        }),
        Key::named("lsq", EVERY, &SWITCH, |cfg, on| {
            cfg.model_store_forwarding = on
        }),
    ]
}

/// Parses `BASE[,key=value]*`.
///
/// Bases: `use-based` (the paper's design point, equal to
/// [`SimConfig::paper_default`]), `lru`, `non-bypass`, `ehc`, `rf-1`,
/// `rf-2`, `rf-3` and `two-level`. Every key, with the bases that take
/// it and what it accepts, is listed in the repository's README; an
/// unknown key's message lists them all. Each key may appear once, in
/// any order.
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
        let bases = bases();
        let Some(&(_, storage)) = bases.iter().find(|(n, _)| *n == name) else {
            let names = bases.map(|(n, _)| n);
            return Err(format!(
                "unknown base `{name}`: expected one of {}",
                names.join(", ")
            ));
        };
        let kind = Kind::of(&storage);
        let mut cfg = SimConfig::table1(storage);
        let keys = keys();
        let mut seen = Vec::new();
        for part in parts {
            let (key, value) = part.split_once('=').unwrap_or((part, ""));
            let Some(k) = keys.iter().find(|k| k.name == key) else {
                let names: Vec<&str> = keys.iter().map(|k| k.name).collect();
                return Err(format!(
                    "unknown key `{key}`: expected one of {}",
                    names.join(", ")
                ));
            };
            if seen.contains(&key) {
                return Err(format!(
                    "key `{key}` given twice: give it once, as {}",
                    k.accepts
                ));
            }
            seen.push(key);
            if !k.on.contains(&kind) {
                let takers: Vec<&str> = bases
                    .iter()
                    .filter(|(_, s)| k.on.contains(&Kind::of(s)))
                    .map(|(n, _)| *n)
                    .collect();
                return Err(format!(
                    "key `{key}` does not apply to base `{name}`: it applies to {}",
                    takers.join(", ")
                ));
            }
            (k.set)(&mut cfg, value).ok_or_else(|| {
                format!("bad value `{value}` for `{key}`: expected {}", k.accepts)
            })?;
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

    fn mono(latency: u32) -> SimConfig {
        SimConfig::table1(RegStorage::Monolithic {
            read_latency: latency,
            write_latency: latency,
        })
    }

    #[test]
    fn each_base_equals_the_typed_config_it_replaces() {
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

    /// Each key an experiment sweeps against the config the experiment
    /// used to build by assigning the field on a parsed base.
    #[test]
    fn each_swept_key_reproduces_the_field_assignment_it_replaces() {
        fn tuned(base: &str, tune: impl FnOnce(&mut SimConfig)) -> SimConfig {
            let mut cfg = parse(base);
            tune(&mut cfg);
            cfg
        }
        let cases = [
            (
                "use-based,max-use=3",
                tuned("use-based", |c| cache(c).max_use_count = 3),
            ),
            (
                "use-based,unknown=2,fill=1",
                tuned("use-based", |c| {
                    cache(c).unknown_default = 2;
                    cache(c).fill_default = 1;
                }),
            ),
            (
                "use-based,entries=32,ways=4,fill=1",
                tuned("use-based,entries=32,ways=4", |c| cache(c).fill_default = 1),
            ),
            (
                "use-based,filter=3:1",
                tuned("use-based", |c| c.filter_params = Some((3, 1))),
            ),
            (
                "use-based,ports=4",
                tuned("use-based", |c| c.backing_read_ports = 4),
            ),
            (
                "two-level,transfers=2",
                tuned("two-level", |c| two_level(c).transfers_per_cycle = 2),
            ),
            (
                "use-based,douse-conf=255",
                tuned("use-based", |c| c.douse.conf_threshold = u8::MAX),
            ),
            (
                "use-based,douse-conf=0",
                tuned("use-based", |c| c.douse.conf_threshold = 0),
            ),
            (
                "use-based,douse-sets=16",
                tuned("use-based", |c| c.douse.sets = 16),
            ),
            ("rf-3,bypass=1", tuned("rf-3", |c| c.bypass_stages = 1)),
            (
                "use-based,predictor=not-taken",
                tuned("use-based", |c| {
                    c.branch_predictor = BranchPredictorKind::NotTaken
                }),
            ),
            (
                "use-based,load-spec=off",
                tuned("use-based", |c| c.load_hit_speculation = false),
            ),
            (
                "use-based,lsq=off",
                tuned("use-based", |c| c.model_store_forwarding = false),
            ),
        ];
        for (spec, want) in cases {
            assert_ne!(want, SimConfig::paper_default(), "{spec} sets nothing");
            assert_eq!(parse(spec), want, "{spec}");
        }
        for (on, want) in [("on", true), ("off", false)] {
            let cfg = parse(&format!("rf-1,load-spec={on},lsq={on}"));
            assert_eq!(cfg.load_hit_speculation, want);
            assert_eq!(cfg.model_store_forwarding, want);
        }
        for (name, kind) in PREDICTOR {
            assert_eq!(
                parse(&format!("two-level,predictor={name}")).branch_predictor,
                kind
            );
        }
    }

    fn permutations<'a>(items: &[&'a str]) -> Vec<Vec<&'a str>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        (0..items.len())
            .flat_map(|i| {
                let mut rest = items.to_vec();
                let first = rest.remove(i);
                permutations(&rest).into_iter().map(move |mut p| {
                    p.insert(0, first);
                    p
                })
            })
            .collect()
    }

    #[test]
    fn key_order_never_changes_the_config() {
        assert_eq!(
            parse("two-level,transfers=2,entries=64"),
            parse("two-level,entries=64,transfers=2")
        );
        let specs = [
            "two-level,transfers=2,entries=64,backing=3,bypass=1",
            "use-based,entries=32,ways=4,index=standard,backing=3,max-use=5",
            "lru,unknown=2,fill=1,filter=3:1,ports=2,classify=on",
            "ehc,partition=dynway,adapt=on,protect=on,fault=cache-data:400:9,fetch=round-robin",
            "rf-3,freelist=shared:96,predictor=gshare",
            "non-bypass,douse-sets=64,douse-conf=0",
            "rf-1,load-spec=off,lsq=off,bypass=3",
        ];
        let mut covered = Vec::new();
        for spec in specs {
            let (base, keys) = spec.split_once(',').unwrap();
            let keys: Vec<&str> = keys.split(',').collect();
            let want = parse(spec);
            for order in permutations(&keys) {
                let permuted = format!("{base},{}", order.join(","));
                assert_eq!(parse(&permuted), want, "{permuted} against {spec}");
            }
            covered.extend(keys.iter().map(|kv| kv.split_once('=').unwrap().0));
        }
        for key in keys() {
            assert!(
                covered.contains(&key.name),
                "no permuted spec sets `{}`",
                key.name
            );
        }
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
        assert!(cache.protect);
        assert_eq!(
            cfg.fault_plan,
            Some(FaultPlan::periodic(9, 400, FaultKind::FlipBackingWord))
        );
        assert_eq!(parse("use-based,protect=off"), SimConfig::paper_default());
    }

    #[test]
    fn freelist_names_both_register_pools_on_every_base() {
        assert_eq!(
            parse("use-based,freelist=partitioned"),
            SimConfig::paper_default()
        );
        for (base, _) in bases() {
            let cfg = parse(&format!("{base},freelist=shared:96"));
            assert_eq!(cfg.freelist, FreelistPolicy::Shared { cap: 96 }, "{base}");
        }
        for bad in ["shared:lots", "shared:", "shared", "partitioned:96"] {
            let e = format!("use-based,freelist={bad}")
                .parse::<SimConfig>()
                .unwrap_err();
            assert!(
                e.contains("`freelist`") && e.contains("partitioned or shared:CAP"),
                "{e}"
            );
        }
    }

    /// Each mistake's message must hold every listed fragment.
    #[test]
    fn mistakes_name_the_key_and_what_it_accepts() {
        let indexes = one_of(&INDEX);
        let predictors = one_of(&PREDICTOR);
        let cases: [(&str, &[&str]); 19] = [
            ("lru-ish", &["`lru-ish`", "use-based, lru"]),
            ("use-based,colour=red", &["`colour`", "entries, ways"]),
            ("use-based,index=diagonal", &["`index`", &indexes]),
            ("use-based,ways=two", &["`ways`", "integer"]),
            ("use-based,max-use=300", &["`max-use`", "0 to 255"]),
            (
                "use-based,fault=cache-data:0",
                &["`fault`", "KIND:PERIOD:SEED"],
            ),
            ("use-based,classify", &["`classify`", "on"]),
            ("use-based,ways=4,ways=8", &["`ways`", "twice"]),
            ("rf-3,ways=4", &["`ways`", "`rf-3`", "use-based, lru"]),
            ("rf-3,max-use=3", &["`max-use`", "`rf-3`"]),
            ("rf-1,filter=3:1", &["`filter`", "`rf-1`"]),
            ("two-level,fill=1", &["`fill`", "`two-level`", "ehc"]),
            ("two-level,ports=2", &["`ports`", "`two-level`"]),
            (
                "rf-3,douse-sets=16",
                &["`douse-sets`", "`rf-3`", "use-based, lru, non-bypass, ehc"],
            ),
            ("two-level,douse-conf=0", &["`douse-conf`", "`two-level`"]),
            (
                "use-based,transfers=2",
                &["`transfers`", "`use-based`", "two-level"],
            ),
            ("use-based,predictor=tage", &["`predictor`", &predictors]),
            ("use-based,filter=3", &["`filter`", "DEGREE:SKIP"]),
            ("use-based,filter=3:", &["`filter`", "DEGREE:SKIP"]),
        ];
        for (spec, fragments) in cases {
            let e = spec.parse::<SimConfig>().unwrap_err();
            for fragment in fragments {
                assert!(
                    e.contains(fragment),
                    "{spec}: `{fragment}` missing from: {e}"
                );
            }
        }
        assert!(predictors.contains("not-taken, bimodal, gshare, yags"));
    }

    #[test]
    fn readme_lists_every_key() {
        let readme = include_str!("../../../README.md");
        let start = readme
            .find("The spec keys")
            .expect("README lists the spec keys");
        let list = &readme[start..];
        let list = &list[..list.find("\n#").unwrap_or(list.len())];
        for key in keys() {
            assert!(
                list.contains(&format!("`{}`", key.name)),
                "README's spec-key list omits `{}`",
                key.name
            );
        }
    }
}
