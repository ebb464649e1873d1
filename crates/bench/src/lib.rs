//! Shared support for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper, or serves one tool. They share one command-line grammar — each
//! declares a [`Cli`] flag table, which brings the common study flags
//! (`--scale tiny|small|paper`, `--blocks N`, `--seed N`, ...) — and the
//! evaluation drivers.
//!
//! Run, e.g.:
//!
//! ```text
//! cargo run --release -p oslay-bench --bin fig12_optimization_levels -- --scale paper
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint_gate;
pub mod archive;
pub mod diag;
pub mod digest;

use std::convert::Infallible;
use std::path::PathBuf;
use std::sync::Arc;

use oslay::cache::{
    AddressMap, AttributedCache, AttributionReport, Cache, CacheConfig, CENSUS_SLOTS,
};
use oslay::{
    MultiLane, OsLayout, OsLayoutKind, SimConfig, SimResult, Study, StudyConfig, WorkloadCase,
};
use oslay_layout::Layout;
use oslay_model::synth::Scale;
use oslay_model::{BlockId, Domain};
use oslay_observe::json::{self, DocError, Node};
use oslay_observe::timeline;
use oslay_observe::{flight, AttributionProbe, JsonValue, MetricRegistry, RunReport};

/// Every experiment binary counts allocations: the counting allocator is
/// a pair of relaxed atomic adds on top of the system allocator, cheap
/// enough to leave on unconditionally, and it feeds both the `perf.alloc`
/// report sections and the flight recorder's per-worker probe.
#[global_allocator]
static ALLOC: oslay_perf::alloc::CountingAlloc = oslay_perf::alloc::CountingAlloc;

/// Flushes the flight recorder to the `--trace-out` path and the
/// timeline to the `--telemetry-out` path, if either was given.
/// Idempotent and cheap when both are off; every experiment binary calls
/// this once at the end of `main` (the [`Reporter`] path does it in
/// [`Reporter::finish`]). Both notices go to stderr so stdout stays
/// byte-identical with observability on or off.
pub fn flush_trace() {
    match oslay_observe::flight::flush() {
        Ok(Some(path)) => eprintln!("flight trace written: {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("flight trace write failed: {e}"),
    }
    match oslay_observe::timeline::flush() {
        Ok(Some(path)) => eprintln!("telemetry written: {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("telemetry write failed: {e}"),
    }
}

/// What a command-line flag takes.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// A bare switch: given or not.
    Switch,
    /// One value: its usage placeholder, the check it must pass, and what
    /// the error says it must be when it does not.
    Value(&'static str, fn(&str) -> bool, &'static str),
    /// A file or directory path, shown as the given placeholder; a
    /// missing one "needs a path".
    Path(&'static str),
    /// One of a fixed list of words.
    Choice(&'static [&'static str]),
    /// Two values in a row, shown as the given placeholder.
    Pair(&'static str),
    /// The inner kind, repeatable: every occurrence is kept.
    Many(&'static Kind),
}

/// Any one value, shown as the given placeholder.
#[must_use]
pub const fn text(placeholder: &'static str) -> Kind {
    Kind::Value(placeholder, |_| true, "")
}

/// An unsigned 64-bit integer.
pub const INT: Kind = Kind::Value("N", |v| v.parse::<u64>().is_ok(), "an integer");

/// A seed: a decimal or `0x`-prefixed hexadecimal `u64` (the banners
/// print seeds in hex).
const SEED: Kind = Kind::Value(
    "N",
    |v| parse_seed(v).is_some(),
    "an integer (decimal or 0x hex)",
);

/// Parses a [`SEED`] value.
fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

/// A file path.
pub const FILE: Kind = Kind::Path("FILE");

/// A repeatable file path.
pub const FILES: Kind = Kind::Many(&FILE);

/// A positive integer.
pub const COUNT: Kind = Kind::Value(
    "N",
    |v| v.parse().is_ok_and(|n: u64| n >= 1),
    "an integer >= 1",
);

impl Kind {
    /// The usage placeholder of the flag's value(s), and how many follow it.
    fn placeholder(self) -> (String, usize) {
        match self {
            Kind::Switch => (String::new(), 0),
            Kind::Value(p, ..) | Kind::Path(p) => (p.to_owned(), 1),
            Kind::Choice(words) => (words.join("|"), 1),
            Kind::Pair(p) => (p.to_owned(), 2),
            Kind::Many(inner) => inner.placeholder(),
        }
    }

    /// Checks one value of `flag`, handing it back when it is well formed.
    fn check(self, flag: &'static str, value: String) -> Result<String, ArgError> {
        let expected = match self {
            Kind::Value(_, accept, expected) if !accept(&value) => expected.to_owned(),
            Kind::Choice(words) if !words.contains(&value.as_str()) => match words {
                [rest @ .., last] if !rest.is_empty() => format!("{} or {last}", rest.join(", ")),
                _ => words.join(""),
            },
            Kind::Many(inner) => return inner.check(flag, value),
            _ => return Ok(value),
        };
        Err(ArgError::BadValue {
            flag,
            value,
            expected,
        })
    }
}

/// One entry of a binary's flag table: the flag, what it takes, its
/// default (`""` for none) and its help line.
#[derive(Clone, Copy, Debug)]
pub struct Flag(
    pub &'static str,
    pub Kind,
    pub &'static str,
    pub &'static str,
);

/// The common study flags, shared by every binary whose [`Cli`] names a
/// default scale. `--scale` defaults to that scale; `--blocks` and
/// `--seed` to the scale's own values; `--threads` to every core.
#[rustfmt::skip]
const COMMON: &[Flag] = &[
    Flag("--scale", Kind::Choice(&["tiny", "small", "paper"]), "", "study scale"),
    Flag("--blocks", INT, "", "OS blocks per workload"),
    Flag("--seed", SEED, "", "workload generator seed"),
    Flag("--threads", COUNT, "", "worker threads (output is identical at any N)"),
    Flag("--trace-out", text("FILE"), "", "write a Chrome trace-event flight recording"),
    Flag("--telemetry-out", text("FILE"), "", "write simulated-time cache telemetry"),
];

/// A binary's command-line grammar: an optional leading subcommand, its
/// own flag table and, when `scale` names a default scale, the common
/// study flags. The parser, the usage text and the exit codes all come
/// from this one declaration, so `--help` and the parser cannot disagree.
#[derive(Clone, Copy, Debug)]
pub struct Cli {
    /// The binary's name, as the usage line shows it.
    pub name: &'static str,
    /// The subcommands, one of which must come first (empty: none).
    pub subcommands: &'static [&'static str],
    /// The default `--scale`; `None` for a binary without the common
    /// study flags.
    pub scale: Option<&'static str>,
    /// The binary's own flags.
    pub flags: &'static [Flag],
}

/// A command line a [`Cli`] rejects, or a request for its help text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// `--help` or `-h`: print the usage text and exit 0.
    Help,
    /// A flag came last, without its value(s).
    MissingValue {
        /// The flag.
        flag: &'static str,
        /// What it needs: "a value", "a path" or "two values".
        needs: &'static str,
    },
    /// A flag's value is malformed.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// The value given.
        value: String,
        /// What the flag accepts.
        expected: String,
    },
    /// An argument the binary's table does not know (or an unknown
    /// subcommand).
    Unknown(String),
    /// The binary takes a subcommand and none was given.
    NoSubcommand,
    /// An input file named by a flag cannot be read or is malformed.
    BadFile {
        /// The flag.
        flag: &'static str,
        /// The file.
        path: PathBuf,
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Help => write!(f, "help requested"),
            ArgError::MissingValue { flag, needs } => write!(f, "{flag} needs {needs}"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} must be {expected}, got {value:?}"),
            ArgError::Unknown(arg) => write!(f, "unknown argument {arg:?}"),
            ArgError::NoSubcommand => write!(f, "a subcommand is required"),
            ArgError::BadFile { flag, path, reason } => {
                write!(f, "{flag} {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Cli {
    /// A binary that takes only the common study flags, at paper scale
    /// by default.
    #[must_use]
    pub const fn study(name: &'static str) -> Cli {
        Cli {
            name,
            subcommands: &[],
            scale: Some("paper"),
            flags: &[],
        }
    }

    /// Every flag the binary accepts — its own, then the common ones —
    /// with `--scale` defaulting to the binary's scale.
    fn table(&self) -> impl Iterator<Item = Flag> + '_ {
        let common = if self.scale.is_some() { COMMON } else { &[] };
        self.flags.iter().chain(common).map(|&flag| match flag {
            Flag("--scale", kind, _, help) => {
                Flag("--scale", kind, self.scale.unwrap_or_default(), help)
            }
            flag => flag,
        })
    }

    /// The usage text, generated from the flag table.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut out = format!("usage: {}", self.name);
        if !self.subcommands.is_empty() {
            out += &format!(" <{}>", self.subcommands.join("|"));
        }
        out += " [flags]\n";
        for Flag(name, kind, default, help) in self.table() {
            if name == COMMON[0].0 {
                out += "common experiment flags:\n";
            }
            let head = format!("{name} {}", kind.placeholder().0);
            let head = head.trim_end();
            // A head too long for its column puts the help on the next line.
            let wrap = if head.len() > 26 {
                format!("\n{:28}", "")
            } else {
                String::new()
            };
            out += &format!("  {head:<26}{wrap} {help}");
            if !default.is_empty() {
                out += &format!(" (default {default})");
            }
            if matches!(kind, Kind::Many(_)) {
                out += " (repeatable)";
            }
            out.push('\n');
        }
        out + "  --help, -h                 print this help and exit"
    }

    /// Parses an explicit argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] for an unknown argument, a missing or
    /// unknown subcommand, a flag missing its value, or a malformed value
    /// — and [`ArgError::Help`] for `--help`/`-h`.
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let mut values = Vec::new();
        for Flag(name, kind, default, _) in self.table() {
            let seeded = match default {
                "" => Vec::new(),
                d => vec![kind.check(name, d.to_owned())?],
            };
            values.push((name, seeded, false));
        }
        let mut argv = argv.into_iter();
        let mut sub = "";
        while let Some(arg) = argv.next() {
            if arg == "--help" || arg == "-h" {
                return Err(ArgError::Help);
            }
            if sub.is_empty() && !self.subcommands.is_empty() {
                let known = self.subcommands.iter().find(|s| **s == arg);
                sub = known.ok_or(ArgError::Unknown(arg))?;
                continue;
            }
            let Some(Flag(flag, kind, ..)) = self.table().find(|f| f.0 == arg) else {
                return Err(ArgError::Unknown(arg));
            };
            let needs = match kind {
                Kind::Path(_) | Kind::Many(Kind::Path(_)) => "a path",
                Kind::Pair(_) => "two values",
                _ => "a value",
            };
            let mut given = Vec::new();
            for _ in 0..kind.placeholder().1 {
                let value = argv.next().ok_or(ArgError::MissingValue { flag, needs })?;
                given.push(kind.check(flag, value)?);
            }
            if let Some((_, old, seen)) = values.iter_mut().find(|(n, ..)| *n == flag) {
                if *seen && matches!(kind, Kind::Many(_)) {
                    old.extend(given);
                } else {
                    *old = given;
                }
                *seen = true;
            }
        }
        if sub.is_empty() && !self.subcommands.is_empty() {
            return Err(ArgError::NoSubcommand);
        }
        Ok(Args { sub, values })
    }

    /// Parses the process command line — the one place any binary reads
    /// its arguments. `--help` prints the usage text and exits 0; a
    /// rejected command line exits through [`Cli::fail`]. For a binary
    /// with the common study flags it also applies their process-wide
    /// side effects (`--trace-out`, `--telemetry-out`). From
    /// here on, a stdout closed by its reader ends the binary quietly
    /// with status 0.
    #[must_use]
    pub fn args(&self) -> Args {
        quiet_broken_pipe();
        match self.parse(std::env::args().skip(1)) {
            Ok(args) if self.scale.is_some() => {
                apply_run_args(&args.run());
                args
            }
            Ok(args) => args,
            Err(ArgError::Help) => {
                println!("{}", self.usage());
                std::process::exit(0);
            }
            Err(e) => self.fail(&e),
        }
    }

    /// Reports a rejected command line (or unusable input file) on
    /// stderr with the usage text, and exits with status 2.
    pub fn fail(&self, err: &ArgError) -> ! {
        eprintln!("error: {err}\n{}", self.usage());
        std::process::exit(2);
    }
}

/// Makes a stdout closed by its reader (`fig06_routine_skew | head -1`)
/// end the process quietly with status 0. `print!` panics when the pipe
/// is gone; the reader wanted no more output, so that is no failure. The
/// panic hook exits on exactly that panic and hands every other to the
/// default hook.
fn quiet_broken_pipe() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info.payload().downcast_ref::<String>();
        if message.is_some_and(|m| {
            m.starts_with("failed printing to stdout") && m.contains("Broken pipe")
        }) {
            std::process::exit(0);
        }
        default(info);
    }));
}

/// A parsed command line: the subcommand and every flag's values (its
/// default when not given), already checked against the flag table.
#[derive(Clone, Debug)]
pub struct Args {
    /// The subcommand; empty for a binary without subcommands.
    pub sub: &'static str,
    values: Vec<(&'static str, Vec<String>, bool)>,
}

impl Args {
    /// Whether the flag was given on the command line.
    #[must_use]
    pub fn on(&self, flag: &str) -> bool {
        self.values.iter().any(|(n, _, seen)| *n == flag && *seen)
    }

    /// Every value of the flag, in command-line order (its default when
    /// not given; two for a [`Kind::Pair`]).
    #[must_use]
    pub fn all(&self, flag: &str) -> &[String] {
        let slot = self.values.iter().find(|(n, ..)| *n == flag);
        slot.map_or(&[], |(_, values, _)| values)
    }

    /// The flag's last value, or its default.
    #[must_use]
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.all(flag).last().map(String::as_str)
    }

    /// The flag's value as a path.
    #[must_use]
    pub fn path(&self, flag: &str) -> Option<PathBuf> {
        self.get(flag).map(PathBuf::from)
    }

    /// The flag's value parsed as a number (its [`Kind::Value`] check
    /// guarantees it parses); `None` without a value or a default.
    #[must_use]
    pub fn num<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.get(flag)?.parse().ok()
    }

    /// The values of a repeatable [`Kind::Choice`] flag, in order, where
    /// the word `all` stands for every entry of `every`.
    #[must_use]
    pub fn expand_all(&self, flag: &str, every: &[&str]) -> Vec<String> {
        let mut out = Vec::new();
        for value in self.all(flag) {
            if value == "all" {
                out = every.iter().map(|s| (*s).to_owned()).collect();
            } else {
                out.push(value.clone());
            }
        }
        out
    }

    /// The common study arguments.
    #[must_use]
    pub fn run(&self) -> RunArgs {
        let mut config = match self.get("--scale") {
            Some("tiny") => StudyConfig::tiny(),
            Some("small") => StudyConfig::small(),
            _ => StudyConfig::paper(),
        };
        config.os_blocks = self.num("--blocks").unwrap_or(config.os_blocks);
        config.seed = self
            .get("--seed")
            .and_then(parse_seed)
            .unwrap_or(config.seed);
        RunArgs {
            config,
            threads: self
                .num("--threads")
                .unwrap_or_else(oslay::exec::default_threads),
            trace_out: self.path("--trace-out"),
            telemetry_out: self.path("--telemetry-out"),
        }
    }
}

/// The common experiment arguments: study configuration plus the worker
/// count for sharded execution.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// The study configuration (`--scale`, `--blocks`, `--seed`).
    pub config: StudyConfig,
    /// Worker threads for independent simulation jobs (`--threads`,
    /// default: available parallelism). Output is byte-identical at any
    /// value; see `oslay::exec::parallel_map`.
    pub threads: usize,
    /// Write a Chrome trace-event JSON flight recording here
    /// (`--trace-out FILE`). `None` leaves the flight recorder disabled,
    /// which is the zero-overhead default.
    pub trace_out: Option<PathBuf>,
    /// Write the simulated-time telemetry document here
    /// (`--telemetry-out FILE`). `None` leaves the timeline disabled,
    /// which is the zero-overhead default.
    pub telemetry_out: Option<PathBuf>,
}

/// Applies the common arguments' process-wide side effects:
/// flight-recorder activation (`--trace-out`) and the telemetry timeline
/// (`--telemetry-out`).
fn apply_run_args(args: &RunArgs) {
    if let Some(path) = &args.trace_out {
        oslay_observe::flight::set_output(path);
        oslay_observe::flight::set_thread_track("main");
        oslay_perf::alloc::install_flight_probe();
    }
    if let Some(path) = &args.telemetry_out {
        oslay_observe::timeline::set_output(path);
    }
}

/// Prints the standard experiment banner.
pub fn banner(title: &str, config: &StudyConfig) {
    println!("== {title} ==");
    println!(
        "   scale: {:?}, OS blocks/workload: {}, seed: {:#x}",
        config.scale, config.os_blocks, config.seed
    );
    println!();
}

/// Scale label for result files.
#[must_use]
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

/// Which application layout to pair with an OS layout.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum AppSide {
    /// Unoptimized application (source order at `APP_BASE`).
    Base,
    /// `OptA`: the application optimized with sequences + loop area.
    Optimized,
    /// Chang–Hwu-optimized application.
    ChangHwu,
}

/// Builds the application layout a ladder level pairs with a case (`None`
/// for app-free workloads like Shell).
#[must_use]
pub fn app_layout_for(
    study: &Study,
    case: &WorkloadCase,
    app_side: AppSide,
    cache_size: u32,
) -> Option<Layout> {
    match app_side {
        AppSide::Base => study.app_base_layout(case),
        AppSide::Optimized => study.app_opt_layout(case, cache_size),
        AppSide::ChangHwu => study.app_ch_layout(case),
    }
}

/// Replays one workload through precomputed layouts and reports the
/// replay's miss, eviction and final set-occupancy metrics into `registry`
/// ([`Cache::report_into`]), so the run report carries `cache.*` metrics
/// alongside the aggregate statistics.
///
/// Sharded drivers call this directly with memoized layouts (building an
/// OS layout is far more expensive than replaying a tiny trace through
/// it) and a per-job registry.
#[must_use]
pub fn run_probed_on(
    study: &Study,
    case: &WorkloadCase,
    os_layout: &Layout,
    app_layout: Option<&Layout>,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    registry: &Arc<MetricRegistry>,
) -> SimResult {
    let mut cache = Cache::new(cache_cfg);
    let result = study.simulate(case, os_layout, app_layout, &mut cache, sim);
    cache.report_into(registry.as_ref());
    result
}

/// Evaluates one workload under one OS layout kind through the
/// attribution engine on a unified cache: every miss is
/// classified compulsory/capacity/conflict, charged to its cache set,
/// Figure 13 block class, OS entry class, and (for conflicts) its
/// evictor→victim pair. Returns the usual [`SimResult`] plus the
/// [`AttributionReport`].
///
/// When `registry` is given, the replay's `cache.attr.*` metrics are
/// reported into it once, from [`AttributedCache::report`].
#[must_use]
pub fn run_case_attributed(
    study: &Study,
    case: &WorkloadCase,
    os_kind: OsLayoutKind,
    app_side: AppSide,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    registry: Option<&Arc<MetricRegistry>>,
) -> (SimResult, AttributionReport) {
    let os = study.os_layout(os_kind, cache_cfg.size());
    let app = app_layout_for(study, case, app_side, cache_cfg.size());
    let _t = timeline::scope(
        timeline::group(),
        0,
        format!("{}/{}", case.name(), os_kind.name()),
    );
    run_attributed_on(study, case, &os, app.as_ref(), cache_cfg, sim, registry)
}

/// The attribution address map of one replay: the OS layout's spans,
/// tagged with its block classes, plus the application's when the
/// workload has one (app and OS address spaces are disjoint, so one map
/// holds both).
#[must_use]
pub fn address_map(
    study: &Study,
    case: &WorkloadCase,
    os: &OsLayout,
    app: Option<&Layout>,
) -> AddressMap {
    let mut spans = oslay_layout::layout_spans(
        &study.kernel().program,
        &os.layout,
        Domain::Os,
        os.classes.as_deref(),
    );
    if let (Some(app_layout), Some(app_program)) = (app, case.app.as_ref()) {
        spans.extend(oslay_layout::layout_spans(
            app_program,
            app_layout,
            Domain::App,
            None,
        ));
    }
    AddressMap::build(spans)
}

/// The census reference column of one replay: how many word fetches of
/// `case`'s trace land in each [`CENSUS_SLOTS`] slot of `map` under the
/// given layouts. A block fetches `fetch_words` words from its address
/// once per execution, so the column is each block's profile weight
/// spread over the map's spans ([`AddressMap::count_words`]), read off
/// `case.os_profile` and `case.app_profile` without a replay. It equals
/// a per-fetch count of the replay's words.
#[must_use]
pub fn census_refs(
    map: &AddressMap,
    case: &WorkloadCase,
    os: &Layout,
    app: Option<&Layout>,
) -> [u64; CENSUS_SLOTS] {
    let mut refs = [0; CENSUS_SLOTS];
    let app = app.zip(case.app_profile.as_ref());
    for (layout, profile) in std::iter::once((os, &case.os_profile)).chain(app) {
        for i in 0..layout.num_blocks() {
            let id = BlockId::new(i);
            let weight = profile.node_weight(id);
            if weight > 0 {
                map.count_words(layout.addr(id), layout.fetch_words(id), weight, &mut refs);
            }
        }
    }
    refs
}

/// Like [`run_case_attributed`], but with precomputed layouts (the
/// sharded drivers memoize each [`OsLayout`] once and fan the replay jobs
/// out over it).
#[must_use]
pub fn run_attributed_on(
    study: &Study,
    case: &WorkloadCase,
    os: &OsLayout,
    app: Option<&Layout>,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    registry: Option<&Arc<MetricRegistry>>,
) -> (SimResult, AttributionReport) {
    let map = Arc::new(address_map(study, case, os, app));
    let mut cache = match registry {
        Some(reg) => {
            let probe: Arc<dyn AttributionProbe + Send + Sync> = Arc::clone(reg) as _;
            AttributedCache::with_probe(Cache::new(cache_cfg), map, probe)
        }
        None => AttributedCache::new(Cache::new(cache_cfg), map),
    };
    let result = study.simulate(case, &os.layout, app, &mut cache, sim);
    (result, cache.report())
}

/// One job of `run_ordered`: its timeline label, the output slots it
/// fills, and its input.
struct Job<T> {
    label: String,
    slots: Vec<usize>,
    input: T,
}

/// The one executor behind every sharded driver.
///
/// Fans `jobs` out over up to `threads` workers
/// ([`oslay::exec::parallel_map`]), each inside its own timeline scope
/// (one group for the whole fan-out, allocated before it, indexed by job
/// order). A job receives one private [`MetricRegistry`] shard per
/// output slot it declared and returns one result per slot, in the same
/// order. Every `(result, shard)` then lands at its slot, and the shards
/// fold into `registry` in **slot order** — counters and histograms merge
/// commutatively, gauges overwrite in that fixed order — so the returned
/// results and the final registry are identical at any worker count and
/// independent of which job settled which slot. The slots of all jobs
/// must partition `0..n`.
///
/// # Errors
///
/// Returns the first job error in job order; `registry` is then left
/// untouched.
fn run_ordered<T, R, E, F>(
    threads: usize,
    jobs: Vec<Job<T>>,
    registry: &MetricRegistry,
    run: F,
) -> Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(T, &[Arc<MetricRegistry>]) -> Result<Vec<R>, E> + Sync,
{
    let n: usize = jobs.iter().map(|j| j.slots.len()).sum();
    let group = timeline::group();
    let settled = oslay::exec::parallel_map(threads, jobs, |i, job| {
        let _t = timeline::scope(group, i as u64, job.label);
        let shards: Vec<Arc<MetricRegistry>> = job
            .slots
            .iter()
            .map(|_| Arc::new(MetricRegistry::new()))
            .collect();
        let results = run(job.input, &shards)?;
        assert_eq!(results.len(), shards.len(), "one result per slot");
        Ok((job.slots, results, shards))
    });
    let mut placed: Vec<Option<(R, Arc<MetricRegistry>)>> = (0..n).map(|_| None).collect();
    for job in settled {
        let (slots, results, shards) = job?;
        for (slot, pair) in slots.into_iter().zip(results.into_iter().zip(shards)) {
            assert!(
                placed[slot].replace(pair).is_none(),
                "slot {slot} settled twice"
            );
        }
    }
    Ok(placed
        .into_iter()
        .map(|pair| {
            let (r, shard) = pair.expect("every slot settled");
            registry.merge_from(&shard);
            r
        })
        .collect())
}

/// Splits a case-major result list into one row of `width` per case.
fn into_rows<R>(flat: Vec<R>, width: usize) -> Vec<Vec<R>> {
    let mut flat = flat.into_iter();
    let mut rows = Vec::new();
    loop {
        let row: Vec<R> = flat.by_ref().take(width).collect();
        if row.is_empty() {
            return rows;
        }
        rows.push(row);
    }
}

/// The OS layout of every Figure-12 ladder level, each distinct kind
/// built once (OptA shares OptS's) — building a layout costs far more
/// than replaying a small trace through it.
fn ladder_os_layouts(study: &Study, cache_size: u32) -> Vec<Arc<OsLayout>> {
    let mut built: Vec<(OsLayoutKind, Arc<OsLayout>)> = Vec::new();
    figure12_ladder()
        .into_iter()
        .map(|(_, kind, _)| {
            if let Some((_, os)) = built.iter().find(|(k, _)| *k == kind) {
                return Arc::clone(os);
            }
            let os = Arc::new(study.os_layout(kind, cache_size));
            built.push((kind, Arc::clone(&os)));
            os
        })
        .collect()
}

/// Runs the whole Figure-12 matrix — every workload × every ladder level
/// — over up to `threads` workers, returning `results[case][level]`.
///
/// One replay job per cell over the memoized ladder layouts, each
/// recording its cache events into a private registry shard that
/// `run_ordered` folds into `registry` in cell order, so the final
/// registry state is identical at any worker count, and equal to a
/// sequential run's.
#[must_use]
pub fn run_figure12_matrix(
    study: &Study,
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Vec<Vec<SimResult>> {
    let ladder = figure12_ladder();
    let layouts = ladder_os_layouts(study, cache_cfg.size());
    let jobs = (0..study.cases().len())
        .flat_map(|c| (0..ladder.len()).map(move |l| (c, l)))
        .enumerate()
        .map(|(i, (c, l))| Job {
            label: format!("{}/{}", study.cases()[c].name(), ladder[l].0),
            slots: vec![i],
            input: (c, l),
        })
        .collect();
    let Ok(flat) = run_ordered(threads, jobs, registry, |(c, l), shards| {
        let case = &study.cases()[c];
        let app = app_layout_for(study, case, ladder[l].2, cache_cfg.size());
        let os = &layouts[l].layout;
        let r = run_probed_on(study, case, os, app.as_ref(), cache_cfg, sim, &shards[0]);
        Ok::<_, Infallible>(vec![r])
    });
    into_rows(flat, ladder.len())
}

/// One evaluation point of a parameter sweep: a workload replayed under
/// an explicit (possibly custom) OS layout and cache organization.
///
/// The sweep binaries (Figures 15–17) build their full point grids up
/// front — memoizing each distinct layout in an [`Arc`] — and hand them
/// to [`run_sweep_single_pass`].
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Index into [`Study::cases`].
    pub case: usize,
    /// The OS layout to replay under (memoized by the caller; sweeps
    /// share one layout across many points).
    pub os: Arc<Layout>,
    /// Which application layout to pair with it.
    pub app: AppSide,
    /// The cache organization for this point.
    pub cache: CacheConfig,
}

/// Replays every sweep point separately over up to `threads` workers,
/// returning one [`SimResult`] per point, in point order — the reference
/// [`run_sweep_single_pass`] is checked against.
///
/// One job per point; the shards fold into `registry` in point order, so
/// the registry state — and therefore the run report — is byte-identical
/// at any worker count.
#[must_use]
pub fn run_sweep(
    study: &Study,
    points: Vec<SweepPoint>,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Vec<SimResult> {
    let apps = memoized_app_layouts(study, &points);
    let jobs = points
        .into_iter()
        .zip(apps)
        .enumerate()
        .map(|(i, (p, app))| Job {
            label: format!("{}@{}", study.cases()[p.case].name(), p.cache),
            slots: vec![i],
            input: (p, app),
        })
        .collect();
    let Ok(out) = run_ordered(threads, jobs, registry, |(p, app), shards| {
        let case = &study.cases()[p.case];
        let r = run_probed_on(study, case, &p.os, app.as_deref(), p.cache, sim, &shards[0]);
        Ok::<_, Infallible>(vec![r])
    });
    out
}

/// Builds each distinct application layout a sweep grid needs exactly
/// once, on the caller's thread, returning one (shared) layout per point
/// in point order.
///
/// The memo key is `(case, app side, size key)`, where the cache size
/// participates only for [`AppSide::Optimized`] — the Base and Chang–Hwu
/// application layouts do not depend on it, so sweeping cache sizes
/// reuses a single build. Points sharing a key share one [`Arc`], which
/// the single-pass driver additionally relies on to group lanes.
fn memoized_app_layouts(study: &Study, points: &[SweepPoint]) -> Vec<Option<Arc<Layout>>> {
    type MemoKey = (usize, AppSide, u32);
    let mut memo: Vec<(MemoKey, Option<Arc<Layout>>)> = Vec::new();
    points
        .iter()
        .map(|p| {
            let size_key = match p.app {
                AppSide::Optimized => p.cache.size(),
                AppSide::Base | AppSide::ChangHwu => 0,
            };
            let key = (p.case, p.app, size_key);
            if let Some((_, hit)) = memo.iter().find(|(k, _)| *k == key) {
                return hit.clone();
            }
            let built =
                app_layout_for(study, &study.cases()[p.case], p.app, p.cache.size()).map(Arc::new);
            memo.push((key, built.clone()));
            built
        })
        .collect()
}

/// Evaluates every sweep point in **one trace pass per layout pair**
/// instead of one replay per point, returning exactly what [`run_sweep`]
/// would: the same results and the same final registry state (hence
/// byte-identical run-report metrics) at any worker count.
///
/// Points are partitioned by case in first-appearance order; each case
/// job feeds its buffered trace to every distinct layout pair's
/// [`MultiLane`] in turn, whose [`oslay::cache::MultiSim`] settles all cache
/// organizations of that pair simultaneously — stack inclusion across
/// sizes/associativities sharing a line size, banked tag arrays across
/// line sizes. A case job owns the scattered global indices of its
/// points as output slots and mirrors each point's cache events into
/// that slot's shard, so `run_ordered` folds them in global point
/// order, the same order as [`run_sweep`].
///
/// Only aggregate statistics can be collected this way: a detailed
/// [`SimConfig`] falls back to [`run_sweep`] (no committed sweep grid
/// asks for one). A lane settles many caches at once, so the single
/// pass records no timeline runs.
#[must_use]
pub fn run_sweep_single_pass(
    study: &Study,
    points: Vec<SweepPoint>,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Vec<SimResult> {
    if sim.detailed {
        return run_sweep(study, points, sim, threads, registry);
    }
    let apps = memoized_app_layouts(study, &points);

    /// One distinct layout pair within a case: the cache organizations
    /// to evaluate under it and, per organization, the global grid index
    /// its result belongs to.
    struct LaneSpec {
        os: Arc<Layout>,
        app: Option<Arc<Layout>>,
        configs: Vec<CacheConfig>,
        origin: Vec<usize>,
    }
    let mut cases: Vec<(usize, Vec<LaneSpec>)> = Vec::new();
    for (gi, (p, app)) in points.iter().zip(&apps).enumerate() {
        let lanes = match cases.iter().position(|(c, _)| *c == p.case) {
            Some(j) => &mut cases[j].1,
            None => {
                cases.push((p.case, Vec::new()));
                &mut cases.last_mut().expect("just pushed").1
            }
        };
        // Lane identity: same OS layout (pointer fast path, then
        // content) and same memoized app layout (pointer equality is
        // exact: `memoized_app_layouts` shares one Arc per key).
        let same_app = |l: &LaneSpec| match (&l.app, app) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        let lane = match lanes
            .iter()
            .position(|l| (Arc::ptr_eq(&l.os, &p.os) || l.os == p.os) && same_app(l))
        {
            Some(k) => &mut lanes[k],
            None => {
                lanes.push(LaneSpec {
                    os: Arc::clone(&p.os),
                    app: app.clone(),
                    configs: Vec::new(),
                    origin: Vec::new(),
                });
                lanes.last_mut().expect("just pushed")
            }
        };
        lane.configs.push(p.cache);
        lane.origin.push(gi);
    }
    let jobs = cases
        .into_iter()
        .map(|(c, lanes)| Job {
            label: format!("{}@multi", study.cases()[c].name()),
            slots: lanes
                .iter()
                .flat_map(|l| l.origin.iter().copied())
                .collect(),
            input: (c, lanes),
        })
        .collect();

    let Ok(out) = run_ordered(threads, jobs, registry, |(c, specs), shards| {
        // Each lane takes the case's buffered trace in turn — the same
        // event source the per-point `Study::simulate` path replays —
        // and is dropped once its points are settled. Slots run lane by
        // lane, organization by organization, exactly as the job
        // declared them.
        use oslay::trace::TraceSink as _;
        let events = study.cases()[c].trace.events();
        let _span = oslay_observe::span("study.sim");
        let mut shards = shards.iter();
        let mut settled = Vec::new();
        for spec in &specs {
            let mut lane = MultiLane::new(&spec.os, spec.app.as_deref(), &spec.configs);
            lane.events(events);
            for k in 0..spec.configs.len() {
                let shard = shards.next().expect("one shard per slot");
                lane.sim().report_into(k, shard.as_ref());
                settled.push(SimResult {
                    stats: lane.sim().stats(k),
                    detail: None,
                });
            }
        }
        Ok::<_, Infallible>(settled)
    });
    out
}

/// Runs every workload under each named OS layout through the
/// attribution engine, over up to `threads` workers, returning
/// `results[case][layout]` (the application always keeps its Base
/// layout, as in Figures 13 and 14).
///
/// One job per cell, shards folded into `registry` in cell order by
/// `run_ordered`, so output is identical at any worker count. The
/// layout names label the timeline runs.
#[must_use]
pub fn run_attributed_layouts(
    study: &Study,
    layouts: &[(String, OsLayout)],
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Vec<Vec<(SimResult, AttributionReport)>> {
    let jobs = (0..study.cases().len())
        .flat_map(|c| (0..layouts.len()).map(move |k| (c, k)))
        .enumerate()
        .map(|(i, (c, k))| Job {
            label: format!("{}/{}", study.cases()[c].name(), layouts[k].0),
            slots: vec![i],
            input: (c, k),
        })
        .collect();
    let Ok(flat) = run_ordered(threads, jobs, registry, |(c, k), shards| {
        let case = &study.cases()[c];
        let app = app_layout_for(study, case, AppSide::Base, cache_cfg.size());
        let os = &layouts[k].1;
        let r = run_attributed_on(
            study,
            case,
            os,
            app.as_ref(),
            cache_cfg,
            sim,
            Some(&shards[0]),
        );
        Ok::<_, Infallible>(vec![r])
    });
    into_rows(flat, layouts.len())
}

/// [`run_attributed_layouts`] over the named layout kinds, each built
/// once.
#[must_use]
pub fn run_attributed_matrix(
    study: &Study,
    kinds: &[OsLayoutKind],
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    threads: usize,
    registry: &Arc<MetricRegistry>,
) -> Vec<Vec<(SimResult, AttributionReport)>> {
    let layouts: Vec<(String, OsLayout)> = kinds
        .iter()
        .map(|&kind| {
            (
                kind.name().to_owned(),
                study.os_layout(kind, cache_cfg.size()),
            )
        })
        .collect();
    run_attributed_layouts(study, &layouts, cache_cfg, sim, threads, registry)
}

/// Materializes a searched [`LayoutView`](oslay_verify::LayoutView) back
/// into a placed [`OsLayout`] via `Layout::assemble`.
///
/// The searched layout has no class map or SelfConfFree area — like the
/// Base and Chang–Hwu kinds, it is verified structurally only.
///
/// # Panics
///
/// Panics if the view does not re-assemble (the search's admission gate
/// guarantees it does) or fails structural verification.
#[must_use]
pub fn searched_os_layout(study: &Study, view: &oslay_verify::LayoutView) -> OsLayout {
    let program = &study.kernel().program;
    let layout = Layout::assemble(program, view.name.clone(), &view.addr, &view.size)
        .expect("searched view re-assembles into a layout");
    let report = oslay_verify::verify_structural(program, view);
    assert!(
        report.is_clean(),
        "searched layout lints dirty: {:?}",
        report.diagnostics().first()
    );
    OsLayout {
        layout,
        classes: None,
        scf_bytes: 0,
    }
}

/// How the search winner was chosen among the seed and every restart's
/// best: fast-replay misses per candidate per workload, ranked against
/// the seed (= OptS) baseline.
#[derive(Clone, Debug)]
pub struct SearchSelection {
    /// Total misses, `[candidate][case]` (candidate 0 is the seed).
    pub misses: Vec<Vec<u64>>,
    /// Per candidate: number of workloads with more misses than the seed.
    pub worse_cases: Vec<usize>,
    /// The chosen candidate index.
    pub chosen: usize,
}

/// Replays every distinct candidate view on every workload (app side
/// Base, like the attributed matrices) and picks the winner among the
/// *feasible* candidates — those no worse than the seed on more than
/// half the workloads — by fewest total misses, then fewest
/// worse-than-seed workloads, then lowest objective, then lowest index.
/// Candidate 0 must be the seed view; it is always feasible (zero worse
/// workloads), so a chosen candidate always matches or beats the seed
/// on at least half the workloads, and never has more total misses.
///
/// A candidate with the same `addr` and `size` as an earlier one (a
/// restart that never beat the seed returns the seed's placement) is
/// not materialized or replayed again: it takes the earlier one's miss
/// row, which a replay would reproduce exactly.
///
/// Deterministic at any `threads` (ordered [`oslay::exec::parallel_map`]
/// fan-out, pure integer ranking).
#[must_use]
pub fn select_search_winner(
    study: &Study,
    candidates: &[oslay_verify::LayoutView],
    objectives: &[u64],
    cache_cfg: CacheConfig,
    sim: &SimConfig,
    threads: usize,
) -> SearchSelection {
    assert_eq!(candidates.len(), objectives.len());
    // Each candidate's first equal candidate; only those are replayed.
    let first: Vec<usize> = candidates
        .iter()
        .map(|v| {
            candidates
                .iter()
                .position(|u| u.addr == v.addr && u.size == v.size)
                .expect("a candidate equals itself")
        })
        .collect();
    let distinct: Vec<usize> = (0..candidates.len()).filter(|&k| first[k] == k).collect();
    let layouts: Vec<OsLayout> = distinct
        .iter()
        .map(|&k| searched_os_layout(study, &candidates[k]))
        .collect();
    let cases = study.cases().len();
    let jobs: Vec<(usize, usize)> = (0..distinct.len())
        .flat_map(|d| (0..cases).map(move |c| (d, c)))
        .collect();
    let flat = oslay::exec::parallel_map(threads, jobs, |_, (d, c)| {
        let case = &study.cases()[c];
        let app = app_layout_for(study, case, AppSide::Base, cache_cfg.size());
        let mut cache = Cache::new(cache_cfg);
        study
            .simulate(case, &layouts[d].layout, app.as_ref(), &mut cache, sim)
            .stats
            .total_misses()
    });
    let rows: Vec<&[u64]> = flat.chunks(cases).collect();
    let misses: Vec<Vec<u64>> = first
        .iter()
        .map(|f| rows[distinct.binary_search(f).expect("first is distinct")].to_vec())
        .collect();
    let worse_cases: Vec<usize> = misses
        .iter()
        .map(|row| row.iter().zip(&misses[0]).filter(|(m, b)| m > b).count())
        .collect();
    let chosen = (0..misses.len())
        .filter(|&k| worse_cases[k] * 2 <= cases)
        .min_by_key(|&k| {
            (
                misses[k].iter().sum::<u64>(),
                worse_cases[k],
                objectives[k],
                k,
            )
        })
        .expect("the seed candidate is always feasible");
    SearchSelection {
        misses,
        worse_cases,
        chosen,
    }
}

/// A completed layout search, validated and materialized: what the
/// `search` binary reports and `fig18_alternatives` folds in as a
/// column.
#[derive(Debug)]
pub struct SearchedLayout {
    /// The raw fan-out result.
    pub outcome: oslay_search::SearchOutcome,
    /// Candidate views in ranking order: seed first, then each restart's
    /// best.
    pub candidates: Vec<oslay_verify::LayoutView>,
    /// How the winner was chosen.
    pub selection: SearchSelection,
    /// The chosen layout, materialized.
    pub os: OsLayout,
}

/// Runs the full search pipeline: fan out restarts from the OptS seed,
/// then pick the winner by fast replay against the seed baseline (see
/// [`select_search_winner`]). Deterministic at any `threads`.
#[must_use]
pub fn run_layout_search(
    study: &Study,
    cache_cfg: CacheConfig,
    params: &oslay_search::SearchParams,
    sim: &SimConfig,
    threads: usize,
) -> SearchedLayout {
    let program = &study.kernel().program;
    let profile = study.averaged_os_profile();
    let seed = oslay_verify::LayoutView::from_layout(
        &study.os_layout(OsLayoutKind::OptS, cache_cfg.size()).layout,
    );
    let outcome = oslay_search::run_search(program, profile, &seed, &cache_cfg, params, threads);
    let mut candidates = vec![oslay_verify::LayoutView {
        name: "Search".to_owned(),
        ..seed
    }];
    let mut objectives = vec![outcome.initial];
    for r in &outcome.restarts {
        candidates.push(r.view.clone());
        objectives.push(r.best);
    }
    let selection = select_search_winner(study, &candidates, &objectives, cache_cfg, sim, threads);
    let os = searched_os_layout(study, &candidates[selection.chosen]);
    SearchedLayout {
        outcome,
        candidates,
        selection,
        os,
    }
}

/// Serializes a layout view as the layout file `search --layout-out`
/// writes and `lint --layout-file` reads: one JSON object with `"name"`,
/// `"addr"` and `"size"` (addresses round-trip exactly below 2^53).
#[must_use]
pub fn layout_view_to_json(view: &oslay_verify::LayoutView) -> String {
    let addr = view.addr.iter().map(|&a| JsonValue::Num(a as f64));
    let size = view.size.iter().map(|&s| JsonValue::Num(f64::from(s)));
    let doc = JsonValue::object([
        ("name".to_owned(), JsonValue::Str(view.name.clone())),
        ("addr".to_owned(), JsonValue::Array(addr.collect())),
        ("size".to_owned(), JsonValue::Array(size.collect())),
    ]);
    doc.to_json() + "\n"
}

/// Parses a layout file written by [`layout_view_to_json`].
///
/// # Errors
///
/// Returns a [`DocError`] when the text is not JSON, a member is
/// missing or mistyped, an address is not a non-negative integer, a
/// size does not fit a `u32`, or `addr` and `size` differ in length.
pub fn layout_view_from_json(text: &str) -> Result<oslay_verify::LayoutView, DocError> {
    let v = json::parse(text)?;
    let doc = Node::root(&v);
    let name = doc.member("name")?.str()?.to_owned();
    // Entry errors name the entry and keep the file format's own wording.
    let addr = doc
        .member("addr")?
        .items()?
        .map(|a| {
            let n = a.value.as_u64();
            n.ok_or_else(|| a.wrong("\"addr\" entries must be non-negative integers"))
        })
        .collect::<Result<Vec<u64>, _>>()?;
    let size = doc
        .member("size")?
        .items()?
        .map(|s| {
            let n = s.value.as_u64().and_then(|n| u32::try_from(n).ok());
            n.ok_or_else(|| s.wrong("\"size\" entries must be u32 integers"))
        })
        .collect::<Result<Vec<u32>, _>>()?;
    if addr.len() != size.len() {
        return Err(doc.rule(format!(
            "{} \"addr\" but {} \"size\" entries",
            addr.len(),
            size.len()
        )));
    }
    Ok(oslay_verify::LayoutView { name, addr, size })
}

/// JSON run-report plumbing shared by the experiment binaries.
///
/// Owns the [`MetricRegistry`] that probed caches feed
/// ([`run_probed_on`]) and the [`RunReport`] under construction.
/// [`Reporter::finish`] folds in the global phase-span recorder and
/// writes `results/<name>.json` beside the `.txt` capture of stdout.
#[derive(Debug)]
pub struct Reporter {
    registry: Arc<MetricRegistry>,
    report: RunReport,
}

impl Reporter {
    /// Creates a reporter for the named run.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            registry: Arc::new(MetricRegistry::new()),
            report: RunReport::new(name),
        }
    }

    /// The registry probed caches should feed.
    #[must_use]
    pub fn registry(&self) -> Arc<MetricRegistry> {
        Arc::clone(&self.registry)
    }

    /// Appends a section of numeric fields to the report.
    pub fn add_section<S: Into<String>>(
        &mut self,
        name: &str,
        fields: impl IntoIterator<Item = (S, f64)>,
    ) {
        self.report.add_section(name, fields);
    }

    /// Folds the metric registry and the span totals into the
    /// report and writes it to `results/<name>.json`, returning the path.
    /// Reports the path and the OS error, and exits 1, if the report
    /// cannot be written.
    #[must_use]
    pub fn finish(mut self) -> PathBuf {
        self.report.add_spans(flight::span_totals());
        self.report.add_metrics(&self.registry);
        // Machine-dependent by nature, so the section carries the `perf.`
        // prefix that `to_json_deterministic` strips.
        let alloc = oslay_perf::alloc::snapshot();
        self.report.add_section(
            "perf.alloc",
            [
                ("alloc_calls", alloc.calls as f64),
                ("alloc_bytes", alloc.bytes as f64),
                ("live_bytes", alloc.live_bytes as f64),
                ("peak_bytes", alloc.peak_bytes as f64),
            ],
        );
        let path = PathBuf::from(format!("results/{}.json", self.report.name()));
        if let Err(e) = self.report.write(&path) {
            eprintln!("cannot write run report {}: {e}", path.display());
            std::process::exit(1);
        }
        flush_trace();
        path
    }
}

/// The layout ladder of Figure 12, with the app side each level uses.
#[must_use]
pub fn figure12_ladder() -> Vec<(&'static str, OsLayoutKind, AppSide)> {
    vec![
        ("Base", OsLayoutKind::Base, AppSide::Base),
        ("C-H", OsLayoutKind::ChangHwu, AppSide::Base),
        ("OptS", OsLayoutKind::OptS, AppSide::Base),
        ("OptL", OsLayoutKind::OptL, AppSide::Base),
        ("OptA", OsLayoutKind::OptS, AppSide::Optimized),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use oslay_observe::Probe;

    #[test]
    fn ladder_matches_figure12() {
        let names: Vec<&str> = figure12_ladder().iter().map(|&(n, _, _)| n).collect();
        assert_eq!(names, ["Base", "C-H", "OptS", "OptL", "OptA"]);
    }

    /// A study binary at tiny scale, with one flag of every kind.
    const TEST: Cli = Cli {
        name: "test",
        subcommands: &[],
        scale: Some("tiny"),
        flags: &[
            Flag("--json", Kind::Switch, "", "a switch"),
            Flag("--top", INT, "10", "an integer"),
            Flag("--out", FILE, "", "a path"),
            Flag("--file", FILES, "", "a repeatable path"),
            Flag("--mode", Kind::Choice(&["a", "b", "all"]), "a", "a choice"),
            Flag("--compare", Kind::Pair("A B"), "", "two values"),
        ],
    };

    fn parse(cli: &Cli, args: &[&str]) -> Result<Args, ArgError> {
        cli.parse(args.iter().map(|s| (*s).to_owned()))
    }

    fn parse_err(args: &[&str]) -> ArgError {
        parse(&TEST, args).expect_err("bad command line must be rejected")
    }

    #[test]
    fn parse_trace_out_flag() {
        let args = parse(&TEST, &["--trace-out", "/tmp/t.json", "--threads", "2"]).unwrap();
        let run = args.run();
        assert_eq!(
            run.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.json"))
        );
        assert_eq!(run.threads, 2);
        assert!(parse(&TEST, &[]).unwrap().run().trace_out.is_none());
    }

    #[test]
    fn parse_telemetry_out_flag() {
        let args = parse(&TEST, &["--telemetry-out", "/tmp/tel.json"]).unwrap();
        assert_eq!(
            args.run().telemetry_out.as_deref(),
            Some(std::path::Path::new("/tmp/tel.json"))
        );
        assert!(parse(&TEST, &[]).unwrap().run().telemetry_out.is_none());
    }

    #[test]
    fn usage_lists_every_flag() {
        let usage = TEST.usage();
        for flag in [
            "--scale",
            "--blocks",
            "--seed",
            "--threads",
            "--trace-out",
            "--telemetry-out",
            "--help",
            "--json",
            "--top N",
            "--out FILE",
            "--mode a|b|all",
            "--compare A B",
        ] {
            assert!(usage.contains(flag), "usage must document {flag}");
        }
        assert!(usage.starts_with("usage: test [flags]\n"), "{usage}");
        assert!(usage.contains("common experiment flags"), "{usage}");
        assert!(usage.contains("(default tiny)"), "{usage}");
        assert!(usage.contains("(default 10)"), "{usage}");
        assert!(usage.contains("(repeatable)"), "{usage}");
        assert_eq!(parse_err(&["--json", "-h"]), ArgError::Help);
    }

    #[test]
    fn unknown_flag_fails_with_usage() {
        let err = parse_err(&["--no-such-flag"]);
        assert_eq!(err, ArgError::Unknown("--no-such-flag".to_owned()));
        assert_eq!(err.to_string(), "unknown argument \"--no-such-flag\"");
    }

    #[test]
    fn bad_threads_is_rejected() {
        for bad in ["0", "two"] {
            let err = parse_err(&["--threads", bad]);
            assert!(
                matches!(&err, ArgError::BadValue { flag: "--threads", value, .. } if value == bad),
                "{err:?}"
            );
            assert_eq!(
                err.to_string(),
                format!("--threads must be an integer >= 1, got {bad:?}")
            );
        }
    }

    #[test]
    fn unknown_scale_is_rejected() {
        let err = parse_err(&["--scale", "huge"]);
        assert_eq!(
            err.to_string(),
            "--scale must be tiny, small or paper, got \"huge\""
        );
    }

    #[test]
    fn flag_without_value_is_rejected() {
        for flag in [
            "--scale",
            "--blocks",
            "--seed",
            "--threads",
            "--trace-out",
            "--telemetry-out",
            "--top",
            "--mode",
        ] {
            let err = parse_err(&["--json", flag]);
            assert_eq!(err.to_string(), format!("{flag} needs a value"));
        }
        for flag in ["--out", "--file"] {
            assert_eq!(
                parse_err(&[flag]).to_string(),
                format!("{flag} needs a path")
            );
        }
        let err = parse_err(&["--compare", "x"]);
        assert_eq!(err.to_string(), "--compare needs two values");
        let hex = parse(&TEST, &["--seed", "0x10"]).expect("hex seed");
        assert_eq!(hex.run().config.seed, 16);
        assert_eq!(
            parse(&TEST, &["--seed", "16"]).unwrap().run().config.seed,
            16
        );
        assert!(matches!(
            parse_err(&["--seed", "0xzz"]),
            ArgError::BadValue { flag: "--seed", .. }
        ));
    }

    #[test]
    fn parse_scale_flag_and_default() {
        let args = parse(&TEST, &["--scale", "small"]).unwrap();
        assert_eq!(args.run().config.scale, Scale::Small);
        // Layout verification is a debug-build property, not a flag.
        assert_eq!(
            parse_err(&["--verify"]),
            ArgError::Unknown("--verify".to_owned())
        );
        let plain = parse(&TEST, &[]).unwrap().run();
        assert_eq!(
            plain.config.scale,
            Scale::Tiny,
            "the binary's default scale"
        );
    }

    #[test]
    fn values_defaults_and_repeats() {
        let args = parse(
            &TEST,
            &["--file", "x", "--top", "3", "--file", "y", "--mode", "b"],
        )
        .unwrap();
        assert_eq!(args.all("--file"), ["x", "y"]);
        assert_eq!(args.num::<usize>("--top"), Some(3));
        assert_eq!(args.get("--mode"), Some("b"));
        assert!(!args.on("--json") && args.path("--out").is_none());
        let plain = parse(&TEST, &["--json", "--compare", "p", "q"]).unwrap();
        assert!(plain.on("--json"));
        assert_eq!(plain.num::<usize>("--top"), Some(10), "the table default");
        assert_eq!(plain.get("--mode"), Some("a"));
        assert!(!plain.on("--mode"), "a default is not a given flag");
        assert_eq!(plain.all("--compare"), ["p", "q"]);
        let err = parse_err(&["--mode", "c"]);
        assert_eq!(err.to_string(), "--mode must be a, b or all, got \"c\"");
        let all = parse(&TEST, &["--mode", "all"]).unwrap();
        assert_eq!(all.expand_all("--mode", &["a", "b"]), ["a", "b"]);
    }

    #[test]
    fn subcommand_comes_first() {
        const SUB: Cli = Cli {
            name: "sub",
            subcommands: &["check", "top"],
            scale: None,
            flags: &[Flag("--n", INT, "15", "an integer")],
        };
        let args = parse(&SUB, &["top", "--n", "3"]).unwrap();
        assert_eq!((args.sub, args.num::<u32>("--n")), ("top", Some(3)));
        assert!(SUB.usage().starts_with("usage: sub <check|top> [flags]\n"));
        assert!(!SUB.usage().contains("common experiment flags"));
        assert_eq!(
            parse(&SUB, &[]).unwrap_err().to_string(),
            "a subcommand is required"
        );
        assert_eq!(
            parse(&SUB, &["--n", "3"]).unwrap_err(),
            ArgError::Unknown("--n".to_owned())
        );
        assert_eq!(
            parse(&SUB, &["top", "--scale", "tiny"]).unwrap_err(),
            ArgError::Unknown("--scale".to_owned()),
            "no common flags without a default scale"
        );
    }

    #[test]
    fn run_ordered_folds_in_slot_order() {
        // Jobs settle their slots out of order (the single-pass pattern)
        // and finish in job order, so neither job order nor completion
        // order agrees with slot order: a fold in either would leave the
        // gauge at slot 1's write instead of slot 5's.
        const PLAN: [&[usize]; 3] = [&[5, 2], &[0, 4], &[3, 1]];
        for threads in [1, 8] {
            let jobs = PLAN
                .iter()
                .enumerate()
                .map(|(j, slots)| Job {
                    label: format!("job{j}"),
                    slots: slots.to_vec(),
                    input: j,
                })
                .collect();
            let registry = MetricRegistry::new();
            let Ok(out) = run_ordered(threads, jobs, &registry, |j, shards| {
                std::thread::sleep(std::time::Duration::from_millis(10 * j as u64));
                for (&slot, shard) in PLAN[j].iter().zip(shards) {
                    shard.gauge_set("slot", slot as f64);
                    shard.counter_add("slots", 1);
                    shard.counter_add("slot_sum", slot as u64);
                }
                Ok::<_, Infallible>(PLAN[j].iter().map(|&slot| slot * 10).collect())
            });
            assert_eq!(out, [0, 10, 20, 30, 40, 50], "results in slot order");
            assert_eq!(registry.gauge("slot"), Some(5.0), "gauge fold at {threads}");
            assert_eq!(registry.counter("slots"), 6);
            assert_eq!(registry.counter("slot_sum"), 15);
        }
    }

    #[test]
    fn run_ordered_returns_the_first_error_and_merges_nothing() {
        let jobs = (0..4)
            .map(|j| Job {
                label: String::new(),
                slots: vec![j],
                input: j,
            })
            .collect();
        let registry = MetricRegistry::new();
        let out = run_ordered(2, jobs, &registry, |j, shards| {
            shards[0].counter_add("jobs", 1);
            if j % 2 == 0 {
                Ok(vec![j])
            } else {
                Err(j)
            }
        });
        assert_eq!(out, Err(1));
        assert!(registry.is_empty());
    }
}
