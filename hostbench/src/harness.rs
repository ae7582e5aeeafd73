//! The closed-loop harness shared by every workload: repeated set-up,
//! one-off checks, the timed loop (in a traced run, alternating with
//! iterations whose parts each run under a fresh `phox_trace::Trace`),
//! and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

use phox_core::trace::{self as phox_trace, CounterValue, Kind, Trace};

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::{stats, sys};

/// Fewest set-ups per part; a part's set-up time is their median.
const SETUP_REPS: usize = 5;
/// Host seconds of set-up after which no further set-up starts, so a
/// short set-up is repeated often enough for a steady median.
const SETUP_SECONDS: f64 = 2.0;
/// Most set-ups per part.
const SETUP_MAX_REPS: usize = 200;
/// Fewest timed iterations a loop makes, however long they take.
const MIN_ITERS: usize = 3;
/// Fewest repetitions of a replayed call; its busy time is their median.
const REPLAY_REPS: usize = 3;
/// Host seconds after which a replay starts no further repetition.
const REPLAY_SECONDS: f64 = 0.1;
/// Most repetitions of a replayed call.
const REPLAY_MAX_REPS: usize = 10_000;

/// Reference digests of simulated outputs, committed for the default
/// and the held-out seed: `part<TAB>seed<TAB>digest` per line.
const GOLDEN: &str = include_str!("../golden.tsv");

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured loop, host seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// Describes the first missing, unknown or malformed argument.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds must be in (0, 120], got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Labelled step times of one iteration, host seconds.
pub type Steps = Vec<(&'static str, f64)>;

/// Runs `f`, appending its duration to `steps` under `label`.
pub fn timed<T>(steps: &mut Steps, label: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    steps.push((label, t.elapsed().as_secs_f64()));
    out
}

/// Median host seconds of one call of `f`, over at least
/// [`REPLAY_REPS`] calls and [`REPLAY_SECONDS`].
pub fn replay<T>(mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < REPLAY_REPS
        || (start.elapsed().as_secs_f64() < REPLAY_SECONDS && times.len() < REPLAY_MAX_REPS)
    {
        let t = Instant::now();
        std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    stats::median(&times).unwrap_or(0.0)
}

/// One measured iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Iter {
    /// Host seconds of the whole iteration.
    pub secs: f64,
    /// Its labelled steps.
    pub steps: Steps,
}

impl Iter {
    /// Summed host seconds of the steps labelled `label`.
    pub fn step_total(&self, label: &str) -> f64 {
        self.steps
            .iter()
            .filter(|(l, _)| *l == label)
            .map(|(_, s)| s)
            .sum()
    }
}

/// Median over iterations of the per-iteration seconds under `label`.
pub fn median_step_total(iters: &[Iter], label: &str) -> f64 {
    let totals: Vec<f64> = iters.iter().map(|i| i.step_total(label)).collect();
    stats::median(&totals).unwrap_or(0.0)
}

/// What one part of a traced iteration recorded: integer counters keyed
/// `track/name`, and span counts keyed `<first track segment>:<name>`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceCounts {
    counters: BTreeMap<String, i64>,
    spans: BTreeMap<String, u64>,
}

impl TraceCounts {
    fn of(trace: &Trace) -> TraceCounts {
        let mut counts = TraceCounts::default();
        for (track, name, value) in trace.counters() {
            if let CounterValue::Int(v) = value {
                counts.counters.insert(format!("{track}/{name}"), v);
            }
        }
        for e in trace.events() {
            if matches!(e.kind, Kind::Span { .. }) {
                let head = e.track.split('/').next().unwrap_or_default();
                *counts
                    .spans
                    .entry(format!("{head}:{}", e.name))
                    .or_default() += 1;
            }
        }
        counts
    }

    /// Integer counter `track/name`, 0 when never incremented.
    pub fn counter(&self, key: &str) -> i64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Spans whose key starts with `prefix`.
    pub fn spans(&self, prefix: &str) -> u64 {
        self.spans
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, n)| n)
            .sum()
    }
}

/// The iterations of a run: timed with tracing off, and (traced runs
/// only) timed with a trace installed, each with what each of its parts
/// recorded, in part order.
#[derive(Debug, Default)]
pub struct Runs {
    /// Untraced iterations.
    pub timed: Vec<Iter>,
    /// Traced iterations.
    pub traced: Vec<(Iter, Vec<TraceCounts>)>,
}

impl Runs {
    /// What part `i` recorded on each traced iteration.
    pub fn counts(&self, i: usize) -> impl Iterator<Item = &TraceCounts> {
        self.traced.iter().map(move |(_, c)| &c[i])
    }
}

/// One part of a workload's iteration: a name, and one pass that
/// returns whether its outputs equal the reference.
pub type Part<'a> = (
    &'static str,
    &'a mut dyn FnMut(&mut Steps) -> Result<bool, String>,
);

/// Run state: checks, set-up times, work per iteration and metrics.
pub struct Harness {
    /// The parsed command line.
    pub args: Args,
    attempted: u64,
    failed: u64,
    /// Median set-up time of each part, and the set-ups made in all.
    setup_s: Vec<f64>,
    setups: usize,
    work: (f64, f64),
    references: Vec<String>,
    end_to_end: BTreeMap<&'static str, f64>,
    per_layer: BTreeMap<&'static str, f64>,
}

impl Harness {
    /// A fresh harness for `args`.
    pub fn new(args: Args) -> Harness {
        Harness {
            args,
            attempted: 0,
            failed: 0,
            setup_s: Vec::new(),
            setups: 0,
            work: (0.0, 0.0),
            references: Vec::new(),
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
        }
    }

    /// The run's seed.
    pub fn seed(&self) -> u64 {
        self.args.seed
    }

    /// Whether this is the traced run.
    pub fn tracing(&self) -> bool {
        self.args.trace
    }

    /// Builds a part at least [`SETUP_REPS`] times and until
    /// [`SETUP_SECONDS`] have passed, dropping each build before the next
    /// so peak memory holds one, and keeps the last. `setup_s` is the sum
    /// over the workload's parts of each part's median build time.
    ///
    /// # Errors
    ///
    /// Propagates the first failed build.
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let start = Instant::now();
        let mut kept = None;
        let mut times = Vec::new();
        while times.len() < SETUP_REPS
            || (start.elapsed().as_secs_f64() < SETUP_SECONDS && times.len() < SETUP_MAX_REPS)
        {
            drop(kept.take());
            let t = Instant::now();
            kept = Some(build()?);
            times.push(t.elapsed().as_secs_f64());
        }
        self.setups += times.len();
        self.setup_s.extend(stats::median(&times));
        kept.ok_or_else(|| "no set-up ran".to_owned())
    }

    /// Counts one correctness check; a failure is reported on stderr.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("hostbench: check failed: {what}");
        }
    }

    /// Counts an `expected == got` check of an integer quantity.
    pub fn check_eq(&mut self, what: &str, expected: u64, got: i64) {
        let ok = u64::try_from(got).is_ok_and(|g| g == expected);
        self.check(&format!("{what}: expected {expected}, got {got}"), ok);
    }

    /// Records the digest of a part's reference output and checks it
    /// against the committed digest for this (part, seed), if any.
    pub fn reference(&mut self, part: &str, digest: u64) {
        let digest = format!("{digest:016x}");
        let seed = self.args.seed.to_string();
        let golden = GOLDEN.lines().find_map(|l| {
            let mut f = l.split('\t');
            (f.next() == Some(part) && f.next() == Some(seed.as_str()))
                .then(|| f.next().unwrap_or_default().to_owned())
        });
        if let Some(golden) = golden {
            let what =
                format!("{part} reference digest {digest} differs from the committed {golden}");
            self.check(&what, golden == digest);
        }
        self.references.push(format!("{part}:{digest}"));
    }

    /// Adds the simulated MACs and costed points one pass of a part does
    /// to the iteration's work.
    pub fn work(&mut self, macs: f64, points: f64) {
        self.work.0 += macs;
        self.work.1 += points;
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.per_layer.insert(name, value);
    }

    /// One iteration: every part in turn, each under a fresh trace when
    /// `traced`. Each part's `Err` or `false` (outputs differ from the
    /// reference) counts as a failed check.
    fn once(&mut self, parts: &mut [Part<'_>], traced: bool) -> (Iter, Vec<TraceCounts>) {
        let mut steps = Steps::new();
        let mut outcomes = Vec::with_capacity(parts.len());
        let mut traces = Vec::new();
        let t = Instant::now();
        for (_, pass) in parts.iter_mut() {
            outcomes.push(if traced {
                let trace = Trace::new();
                traces.push(trace.clone());
                phox_trace::with_installed(trace, || pass(&mut steps))
            } else {
                pass(&mut steps)
            });
        }
        let secs = t.elapsed().as_secs_f64();
        for ((name, _), outcome) in parts.iter().zip(outcomes) {
            match outcome {
                Ok(same) => self.check(&format!("{name} output equals the reference"), same),
                Err(e) => self.check(&format!("{name} failed: {e}"), false),
            }
        }
        (
            Iter { secs, steps },
            traces.iter().map(TraceCounts::of).collect(),
        )
    }

    /// The measured loop over the workload's parts: one untimed warm-up
    /// iteration, then iterations for `--seconds`. A traced run
    /// alternates untraced iterations (the baseline for
    /// `trace.overhead_frac` and for busy times) with traced ones, so
    /// drift in the machine's speed falls on both alike.
    pub fn iterate(&mut self, parts: &mut [Part<'_>]) -> Runs {
        self.once(parts, false);
        let mut runs = Runs::default();
        let start = Instant::now();
        while runs.timed.len() < MIN_ITERS || start.elapsed().as_secs_f64() < self.args.seconds {
            runs.timed.push(self.once(parts, false).0);
            if self.args.trace {
                runs.traced.push(self.once(parts, true));
            }
        }
        if self.args.trace {
            let p50 = |xs: Vec<f64>| stats::median(&xs).unwrap_or(f64::NAN);
            let untraced = p50(runs.timed.iter().map(|i| i.secs).collect());
            let traced = p50(runs.traced.iter().map(|(i, _)| i.secs).collect());
            self.layer("trace.overhead_frac", traced / untraced - 1.0);
        } else {
            self.end_to_end_metrics(&runs.timed);
        }
        runs
    }

    /// Every statistic is a median over iterations, so a slow spell of
    /// the machine that hits a minority of iterations does not move it.
    /// Step percentiles are taken within each iteration first: the tail
    /// of a decode generation or of a sweep's costed calls.
    fn end_to_end_metrics(&mut self, iters: &[Iter]) {
        let p50 = |xs: Vec<f64>| stats::median(&xs);
        let within = |p: f64| {
            p50(iters
                .iter()
                .filter_map(|i| {
                    let steps: Vec<f64> = i.steps.iter().map(|s| s.1).collect();
                    stats::percentile(&steps, p)
                })
                .collect())
        };
        let (step_p50, step_p90) = (within(50.0), within(90.0));
        let m = &mut self.end_to_end;
        if !self.setup_s.is_empty() {
            m.insert("setup_s", self.setup_s.iter().sum());
        }
        if let Some(v) = p50(iters.iter().map(|i| i.secs).collect()) {
            m.insert("iter_s_p50", v);
            m.insert("sim_macs_per_s", self.work.0 / v);
            m.insert("points_per_s", self.work.1 / v);
        }
        if let Some(v) = step_p50 {
            m.insert("step_s_p50", v);
        }
        if let Some(v) = step_p90 {
            m.insert("step_s_p90", v);
        }
        eprintln!(
            "hostbench: {} iterations of {} steps, {} set-ups",
            iters.len(),
            iters.first().map_or(0, |i| i.steps.len()),
            self.setups
        );
    }

    /// Prints the manifest and a readable metric table, and returns the
    /// result line.
    ///
    /// # Errors
    ///
    /// Names a metric the run failed to produce.
    pub fn finish(mut self) -> Result<String, String> {
        println!(
            "{}",
            sys::manifest_json(
                &self.args.workload,
                self.args.seed,
                self.args.trace,
                &self.references.join(",")
            )
        );
        if let Some(mb) = sys::peak_rss_mb() {
            self.end_to_end.insert("peak_rss_mb", mb);
        }
        let (table, values) = if self.args.trace {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let value = |name: &str| {
            values
                .get(name)
                .copied()
                .or_else(|| self.args.trace.then_some(0.0))
        };
        for &(name, unit) in table {
            if let Some(v) = value(name) {
                eprintln!("  {name:<40} {v:>16.6e} {unit}");
            }
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        eprintln!(
            "  {:<40} {error_rate:>16.6e} ({} failed of {} attempted)",
            "error_rate", self.failed, self.attempted
        );
        metrics::result_json(self.attempted, self.failed, table, value)
    }
}

/// FNV-1a 64 over a stream of words.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of a matrix's shape and the exact bits of its values.
pub fn digest_matrix(m: &phox_core::tensor::Matrix) -> u64 {
    let shape = [m.rows() as u64, m.cols() as u64];
    fnv1a(
        shape
            .into_iter()
            .chain(m.as_slice().iter().map(|v| v.to_bits())),
    )
}

/// Digest of text, byte by byte.
pub fn digest_text(s: &str) -> u64 {
    fnv1a(s.bytes().map(u64::from))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "llm_decode",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]);
        assert_eq!(
            a,
            Ok(Args {
                workload: "llm_decode".to_owned(),
                seed: 7,
                seconds: 20.0,
                trace: true
            })
        );
    }

    #[test]
    fn rejects_malformed_command_lines() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "x", "--bogus", "1"]).is_err());
    }

    #[test]
    fn golden_lines_are_well_formed() {
        for line in GOLDEN.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 3, "{line}");
            assert!(f[1].parse::<u64>().is_ok(), "{line}");
            assert_eq!(f[2].len(), 16, "{line}");
        }
    }

    #[test]
    fn digests_see_every_bit() {
        let a = phox_core::tensor::Matrix::zeros(2, 2);
        let mut b = a.clone();
        b.set(1, 1, -0.0);
        assert_ne!(digest_matrix(&a), digest_matrix(&b));
        assert_ne!(digest_text("ab"), digest_text("ba"));
    }
}
