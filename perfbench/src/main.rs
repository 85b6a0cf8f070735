//! Client-path benchmark: drives the real serving tier over loopback
//! TCP (service → engine → fsync'd store or journal relay → reply) in
//! three closed-loop workloads and prints end-to-end metrics, or, with
//! `--trace 1`, per-layer metrics from a traced run.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn_mem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed output
//! check makes the command exit with code 1.

mod client;
mod env;
mod hist;
mod replay;
mod run;
mod trace;
mod workload;

use run::{Dirs, Phase};
use std::path::PathBuf;
use workload::Kind;

struct Opts {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Multiplies every lap's size (the smoke test runs tiny laps).
    scale: f64,
    /// Corrupts one expected reply, to show that mismatches are caught.
    inject_mismatch: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload churn_mem|durable_mixed|relay_stream \
--seed N --seconds S --trace 0|1 [--scale F] [--out DIR] [--inject-mismatch]";

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = 1.0;
    let mut inject_mismatch = false;
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        if flag == "--inject-mismatch" {
            inject_mismatch = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or(bad("workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            "--scale" => {
                scale = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(bad("scale"))?
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        inject_mismatch,
        out,
    })
}

fn median(v: &[u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2] as f64
    } else {
        (s[n / 2 - 1] + s[n / 2]) as f64 / 2.0
    }
}

/// Nearest-rank `q`-quantile of per-call samples (0 without samples).
fn quantile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    s[((s.len() - 1) as f64 * q).round() as usize] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sum(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64
}

/// One reported metric: name, value, unit and, for latencies, the
/// number of samples behind it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<u64>,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples: None,
    }
}

fn timing(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples: Some(samples),
    }
}

/// End-to-end metrics that `BENCHMARK.json` bounds. The p99s and
/// `realloc_max` are reported too, but their run-to-run spread on a
/// shared 2-vCPU host (p99) or across seeds (a single extreme value)
/// exceeds the largest bound a benchmark metric may carry, so they go
/// with the per-layer metrics, which are not bounded.
const BOUNDED: [&str; 7] = [
    "throughput_rps",
    "write_p50_us",
    "read_p50_us",
    "realloc_per_req",
    "migrations_per_req",
    "setup_s",
    "peak_rss_mb",
];

/// The end-to-end metrics of a phase.
fn end_to_end(p: &Phase) -> Vec<Metric> {
    // Every lap serves the same stream, so laps differ only by what else
    // ran on the machine meanwhile. Time-sharing with other tenants
    // only ever slows a lap, so the best decile of lap throughputs and
    // of lap latencies is what this build does when left alone; a change
    // that slows every lap still shows in it. (Over 10 runs the best
    // decile spread less between runs than the median or quartile.)
    let (w, r) = (p.tally.write.count(), p.tally.read.count());
    let (fast, slow) = (0.9, 0.1);
    vec![
        timing(
            "throughput_rps",
            p.over_laps(fast, |f| f.rate),
            "1/s",
            p.requests,
        ),
        timing(
            "write_p50_us",
            p.over_laps(slow, |f| f.write.0) / 1e3,
            "us",
            w,
        ),
        timing(
            "write_p99_us",
            p.over_laps(slow, |f| f.write.1) / 1e3,
            "us",
            w,
        ),
        timing(
            "read_p50_us",
            p.over_laps(slow, |f| f.read.0) / 1e3,
            "us",
            r,
        ),
        timing(
            "read_p99_us",
            p.over_laps(slow, |f| f.read.1) / 1e3,
            "us",
            r,
        ),
        m(
            "realloc_per_req",
            ratio(p.lifetime[1] as f64, p.lifetime[0] as f64),
            "realloc/req",
        ),
        m("realloc_max", p.realloc_max as f64, "realloc"),
        m(
            "migrations_per_req",
            ratio(p.lifetime[2] as f64, p.lifetime[0] as f64),
            "migr/req",
        ),
        timing(
            "setup_s",
            median(&p.setup_ns) / 1e9,
            "s",
            p.setup_ns.len() as u64,
        ),
        m("peak_rss_mb", p.peak_rss_kb as f64 / 1024.0, "MB"),
    ]
}

/// The per-layer metrics of a traced run.
fn per_layer(
    untraced: &Phase,
    traced: &Phase,
    layers: &replay::Layers,
    store: &trace::StoreStats,
) -> Vec<Metric> {
    let laps = traced.laps.max(1) as f64;
    let writes = (traced.serviced + traced.engine_failed) as f64;
    let c = &traced.cluster;
    let replayed = layers.requests.max(1) as f64;
    let per_req = traced.requests.max(1) as f64;
    let mut recover_ns = untraced.recover_ns.clone();
    recover_ns.extend(&traced.recover_ns);

    let service_ns =
        (sum(&layers.parse_ns) + sum(&layers.reply_ns) + sum(&layers.admit_ns)) / replayed;
    let sched_ns = (sum(&layers.insert_ns) + sum(&layers.delete_ns)) / replayed;
    let engine_ns = (sum(&layers.submit_ns) + sum(&layers.flush_ns)) / replayed - sched_ns;
    let store_ns = (sum(&store.append_ns) + sum(&store.sync_ns)) / per_req;
    let cluster_ns = (sum(&c.poll_ns) + sum(&c.send_ns) + sum(&c.drain_ns)) / per_req;
    // Little's law: wall time per request is the mean latency divided
    // by the requests in flight.
    let e2e_ns = traced.measured_ns as f64 / per_req;
    let unattributed = e2e_ns - (service_ns + engine_ns + sched_ns + store_ns + cluster_ns);

    let mut out: Vec<Metric> = end_to_end(untraced)
        .into_iter()
        .filter(|x| !BOUNDED.contains(&x.name.as_str()))
        .collect();
    out.extend([
        m("proto.parse_ns", median(&layers.parse_ns), "ns"),
        m("proto.reply_ns", median(&layers.reply_ns), "ns"),
        m("qos.admit_ns", median(&layers.admit_ns), "ns"),
        m(
            "service.overloaded",
            (untraced.tally.overloaded + traced.tally.overloaded) as f64,
            "count",
        ),
        m(
            "service.refused",
            (untraced.tally.refused + traced.tally.refused) as f64,
            "count",
        ),
        m("engine.submit_ns.p50", median(&layers.submit_ns), "ns"),
        m(
            "engine.submit_ns.p99",
            quantile(&layers.submit_ns, 0.99),
            "ns",
        ),
        m("engine.flush_ns.p50", median(&layers.flush_ns), "ns"),
        m(
            "engine.flush_ns.p99",
            quantile(&layers.flush_ns, 0.99),
            "ns",
        ),
        m(
            "engine.reqs_per_flush",
            ratio(writes, traced.batches as f64),
            "req/flush",
        ),
        m(
            "engine.failed",
            (untraced.engine_failed + traced.engine_failed) as f64,
            "count",
        ),
        m("sched.insert_ns.p50", median(&layers.insert_ns), "ns"),
        m(
            "sched.insert_ns.p99",
            quantile(&layers.insert_ns, 0.99),
            "ns",
        ),
        m("sched.delete_ns.p50", median(&layers.delete_ns), "ns"),
        m(
            "sched.delete_ns.p99",
            quantile(&layers.delete_ns, 0.99),
            "ns",
        ),
        m(
            "sched.realloc_per_req",
            ratio(
                (layers.sched.1 + layers.sched_history.1) as f64,
                (layers.sched.0 + layers.sched_history.0) as f64,
            ),
            "realloc/req",
        ),
        m("store.append_ns.p50", median(&store.append_ns), "ns"),
        m(
            "store.append_ns.p99",
            quantile(&store.append_ns, 0.99),
            "ns",
        ),
        m("store.sync_ns.p50", median(&store.sync_ns), "ns"),
        m("store.sync_ns.p99", quantile(&store.sync_ns, 0.99), "ns"),
        m("store.fsyncs", store.fsyncs as f64 / laps, "fsync/lap"),
        m(
            "store.writes_per_fsync",
            ratio(writes, store.fsyncs as f64),
            "write/fsync",
        ),
        m(
            "store.bytes_written",
            store.bytes_written as f64 / laps,
            "B/lap",
        ),
        m(
            "store.bytes_per_write",
            ratio(store.bytes_written as f64, writes),
            "B/write",
        ),
        m("store.errors", store.errors as f64, "count"),
        m("store.recover_s", median(&recover_ns) / 1e9, "s"),
        m("cluster.poll_ns", median(&c.poll_ns), "ns"),
        m("cluster.send_ns", median(&c.send_ns), "ns"),
        m("cluster.drain_ns", median(&c.drain_ns), "ns"),
        m("cluster.frames", c.frames as f64 / laps, "frame/lap"),
        m(
            "cluster.frame_bytes",
            ratio(c.frame_bytes as f64, c.frames as f64),
            "B/frame",
        ),
        m(
            "cluster.events_per_frame",
            ratio(c.events as f64, c.frames as f64),
            "event/frame",
        ),
        m("cluster.apply_ns", median(&layers.apply_ns), "ns"),
        m(
            "cluster.lag_frames",
            ratio(sum(&c.lag), c.lag.len() as f64),
            "frames",
        ),
        m("cluster.errors", c.errors as f64, "count"),
        m("self.service_ns", service_ns, "ns/req"),
        m("self.engine_ns", engine_ns, "ns/req"),
        m("self.sched_ns", sched_ns, "ns/req"),
        m("self.store_ns", store_ns, "ns/req"),
        m("self.cluster_ns", cluster_ns, "ns/req"),
        m("self.unattributed_ns", unattributed, "ns/req"),
        m("self.e2e_ns", e2e_ns, "ns/req"),
    ]);
    // Tracing overhead: traced minus untraced, as % of untraced.
    for (u, t) in end_to_end(untraced).iter().zip(end_to_end(traced)) {
        out.push(m(
            &format!("overhead.{}", u.name),
            100.0 * ratio(t.value - u.value, u.value),
            "%",
        ));
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_metrics(metrics: &[Metric]) {
    for x in metrics {
        match x.samples {
            Some(n) => println!(
                "metric {} {} {} samples={n}",
                x.name,
                json_num(x.value),
                x.unit
            ),
            None => println!("metric {} {} {}", x.name, json_num(x.value), x.unit),
        }
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let run_dir = opts
        .out
        .join(format!("{}-{}", opts.kind.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        std::process::exit(2);
    }
    let code = bench(&opts, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    std::process::exit(code);
}

fn bench(opts: &Opts, run_dir: &std::path::Path) -> i32 {
    let mut plan = workload::plan(opts.kind, opts.seed, opts.scale);
    if opts.inject_mismatch {
        let ops = &mut plan.callers[0].ops;
        let mid = ops.len() / 2;
        ops[mid].expect.push_str(" (corrupted)");
    }
    let dirs = Dirs {
        template: run_dir.join("template"),
        lap: run_dir.join("lap"),
    };
    let mut checks = Vec::new();
    if opts.kind == Kind::DurableMixed {
        if let Err(e) = run::build_template(&plan, &dirs.template) {
            eprintln!("perfbench: writing the durable history failed: {e}");
            return 1;
        }
    }

    let env = env::collect(run_dir);
    println!(
        "env {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
\"git_sha\":{},\"rustc\":{},\"kernel\":{},\"durable_fs\":{},\"loop\":\"closed\",\
\"connections\":{},\"depth\":{},\"lap_requests\":{},\"note\":{}}}",
        json_str(opts.kind.name()),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        env.nproc,
        json_str(&env.git_sha),
        json_str(&env.rustc),
        json_str(&env.kernel),
        json_str(&env.durable_fs),
        plan.callers.len(),
        plan.depth,
        plan.requests_per_lap(),
        json_str(
            "durable latency is this sandbox disk's fsync through its file system, \
not a storage device's"
        ),
    );
    if opts.kind == Kind::DurableMixed && matches!(env.durable_fs.as_str(), "tmpfs" | "ramfs") {
        eprintln!(
            "perfbench: warning: the durable directory is on {}",
            env.durable_fs
        );
    }

    checks.extend(run::warm_up(&plan, &dirs));
    let phase_seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (untraced, _) = run::phase(&plan, &dirs, phase_seconds, false);
    checks.extend(untraced.checks.iter().cloned());
    let mut attempted = untraced.tally.sent;
    let mut failed = untraced.tally.failed;
    let mut first_failure = untraced.tally.first_failure.clone();

    let metrics = if opts.trace {
        let (traced, store_stats) = run::phase(&plan, &dirs, phase_seconds, true);
        checks.extend(traced.checks.iter().cloned());
        attempted += traced.tally.sent;
        failed += traced.tally.failed;
        if first_failure.is_none() {
            first_failure.clone_from(&traced.tally.first_failure);
        }
        let layers = match &traced.capture {
            Some(cap) => {
                trace::set_on(true);
                let l = replay::replay(&plan, cap, !opts.inject_mismatch);
                trace::set_on(false);
                l
            }
            None => {
                checks.push("the traced phase captured no lap".to_string());
                replay::Layers::default()
            }
        };
        checks.extend(layers.checks.iter().cloned());
        let store = store_stats.lock().expect("store stats lock");
        let metrics = per_layer(&untraced, &traced, &layers, &store);
        let absent: Vec<&str> = [
            ("store", opts.kind != Kind::DurableMixed),
            ("cluster", opts.kind != Kind::RelayStream),
        ]
        .iter()
        .filter(|(_, a)| *a)
        .map(|(n, _)| *n)
        .collect();
        println!("absent layers (reported as 0): {}", absent.join(" "));
        let spans = trace::spans();
        let path = opts.out.join(format!("spans-{}.tsv", opts.kind.name()));
        match trace::write_tsv(&path, &spans) {
            Ok(()) => println!("spans {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing spans failed: {e}"),
        }
        metrics
    } else {
        end_to_end(&untraced)
            .into_iter()
            .filter(|x| BOUNDED.contains(&x.name.as_str()))
            .collect()
    };

    println!(
        "laps {} requests_per_lap {} measured_s {}",
        untraced.laps,
        plan.requests_per_lap(),
        untraced.measured_ns as f64 / 1e9
    );
    print_metrics(&end_to_end(&untraced));
    if opts.trace {
        print_metrics(&metrics);
    }
    failed += checks.len() as u64;
    println!(
        "metric failed_frac {} ratio samples={attempted}",
        json_num(ratio(failed as f64, attempted as f64))
    );
    for c in &checks {
        println!("check failed: {c}");
    }
    if let Some(f) = &first_failure {
        println!("first failed reply: {f}");
    }
    let correct = failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&x.name),
                json_num(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}
