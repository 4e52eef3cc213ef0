//! The repository benchmark: runs one named workload of the Copier
//! simulator from a seed, checks its outputs, and prints every metric by
//! name and unit. See `perfbench/README.md` for the workloads and the
//! metric table.
//!
//! ```text
//! perfbench --workload <fleet|bulk|kv> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The scenario a seed defines is simulated repeatedly until `--seconds`
//! of host time is used (at least `MIN_REPS` times). Each repetition runs
//! in a fresh child process, so its set-up time and peak RSS belong to it
//! alone. Every repetition must reproduce the first one's virtual-time
//! results exactly; host-time metrics are medians over the repetitions,
//! scaled to a reference host speed (`calibrate`).
//! With `--trace 1` every repetition is followed by a traced one, and the
//! last stdout line carries the per-layer metrics instead of the
//! end-to-end ones.

mod bulk;
mod calibrate;
mod fleet;
mod kv;
mod layers;
mod metrics;

use std::collections::BTreeSet;
use std::process::{Command, ExitCode, Stdio};
use std::rc::Rc;
use std::time::{Duration, Instant};

use copier_sim::Nanos;
use layers::Layers;
use metrics::{completed, median, pct, quartile_spread, slo_frac, Fnv, Metrics, Outcome, Spans};

/// Repetitions made even when one overruns `--seconds`: two same-seed
/// runs are the least a determinism check needs, three give a median.
const MIN_REPS: usize = 3;

/// Virtual-time spans every workload reports (0 where it never crosses
/// that boundary).
const SPAN_NAMES: [&str; 6] = [
    "client.gen_lag_us",
    "client.submit_us",
    "client.queue_to_done_us",
    "client.csync_wait_us",
    "os.send_us",
    "os.recv_us",
];

/// One simulated repetition of a workload, as a workload returns it.
#[derive(Default)]
pub struct RunOut {
    /// Virtual-time end-to-end metrics.
    pub e2e: Metrics,
    /// Virtual-time per-layer counters.
    pub layers: Layers,
    /// Spans stamped around the benchmark's calls (traced runs only).
    pub spans: Rc<Spans>,
    /// Further virtual results: per-op latencies, stats vectors.
    pub fingerprint: Fnv,
    pub attempted: u64,
    /// Operations poisoned or answered wrongly (refusals are not failures).
    pub failed: u64,
    /// Payload bytes of completed operations.
    pub payload_bytes: u64,
    /// Host seconds of each simulation's set-up (before `Sim::run`).
    pub setups_s: Vec<f64>,
    /// Host seconds of each `Sim::run`.
    pub run_s: Vec<f64>,
    /// Host seconds spent mapping and filling buffers.
    pub mmap_s: f64,
    /// Host seconds spent registering clients.
    pub register_s: f64,
    /// Failed output and regime checks.
    pub errors: Vec<String>,
}

impl RunOut {
    /// End-to-end metrics of a closed loop. It offers exactly the load it
    /// completes, so its one load level meets the latency limit or the run
    /// left its regime.
    pub fn closed_loop(&mut self, outcomes: &[Outcome], payload: u64, end: Nanos, limit: Nanos) {
        let samples = completed(outcomes);
        self.layers.op_samples = samples.len() as u64;
        let end_ns = end.as_nanos() as f64;
        let goodput = payload as f64 / end_ns;
        let p99 = pct(&samples, 0.99);
        let e = &mut self.e2e;
        e.set("goodput_gbps", goodput, "GB/s");
        e.set("ops_per_s", samples.len() as f64 / end_ns * 1e9, "1/s");
        e.set("op_p50_us", pct(&samples, 0.50) as f64 / 1e3, "us");
        e.set("op_p99_us", p99 as f64 / 1e3, "us");
        e.set("slo_frac", slo_frac(outcomes, limit.as_nanos()), "frac");
        e.set(
            "ok_frac",
            samples.len() as f64 / outcomes.len() as f64,
            "frac",
        );
        let meets = p99 <= limit.as_nanos();
        e.set("max_load_at_slo", if meets { goodput } else { 0.0 }, "GB/s");
        if !meets {
            self.errors
                .push("regime: p99 exceeds the latency limit".into());
        }
    }
}

/// A repetition's results as the parent process reads them back.
#[derive(Default)]
struct Rep {
    fingerprint: u64,
    attempted: u64,
    failed: u64,
    payload_bytes: u64,
    setups_s: Vec<f64>,
    run_s: Vec<f64>,
    mmap_s: f64,
    register_s: f64,
    rss_bytes: u64,
    errors: Vec<String>,
    e2e: Metrics,
    layers: Metrics,
    /// Host seconds of the calibration kernel right after the run.
    cal_s: f64,
    /// Host-speed factor: `REFERENCE_S` over `cal_s`.
    scale: f64,
}

impl Rep {
    fn from_run(o: &RunOut) -> Rep {
        let mut layers = o.layers.metrics();
        let mut f = o.fingerprint;
        o.e2e.fold(&mut f);
        layers.fold(&mut f);
        for v in [o.attempted, o.failed, o.payload_bytes] {
            f.u64(v);
        }
        o.spans.summarise(&SPAN_NAMES, &mut layers);
        Rep {
            fingerprint: f.0,
            attempted: o.attempted,
            failed: o.failed,
            payload_bytes: o.payload_bytes,
            setups_s: o.setups_s.clone(),
            run_s: o.run_s.clone(),
            mmap_s: o.mmap_s,
            register_s: o.register_s,
            rss_bytes: copier_testkit::peak_rss_bytes().unwrap_or(0),
            errors: o.errors.clone(),
            e2e: o.e2e.clone(),
            layers,
            cal_s: 0.0,
            scale: 1.0,
        }
    }

    /// Line-oriented record: `<key> <value...>`.
    fn to_record(&self) -> String {
        let mut s = format!(
            "fp {}\nattempted {}\nfailed {}\npayload {}\nmmap {}\nregister {}\nrss {}\ncal {}\n",
            self.fingerprint,
            self.attempted,
            self.failed,
            self.payload_bytes,
            self.mmap_s,
            self.register_s,
            self.rss_bytes,
            self.cal_s
        );
        for v in &self.setups_s {
            s += &format!("setup {v}\n");
        }
        for v in &self.run_s {
            s += &format!("run {v}\n");
        }
        for e in &self.errors {
            s += &format!("error {}\n", e.replace('\n', " "));
        }
        for (tag, m) in [("e2e", &self.e2e), ("layer", &self.layers)] {
            for (n, v, u) in &m.0 {
                s += &format!("{tag} {n} {v} {u}\n");
            }
        }
        s
    }

    fn from_record(text: &str) -> Result<Rep, String> {
        let mut r = Rep::default();
        for line in text.lines() {
            let (key, rest) = line
                .split_once(' ')
                .ok_or(format!("bad record line {line:?}"))?;
            let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{line:?}: {e}"));
            let int = |v: &str| v.parse::<u64>().map_err(|e| format!("{line:?}: {e}"));
            match key {
                "fp" => r.fingerprint = int(rest)?,
                "attempted" => r.attempted = int(rest)?,
                "failed" => r.failed = int(rest)?,
                "payload" => r.payload_bytes = int(rest)?,
                "mmap" => r.mmap_s = num(rest)?,
                "register" => r.register_s = num(rest)?,
                "rss" => r.rss_bytes = int(rest)?,
                "cal" => {
                    r.cal_s = num(rest)?;
                    r.scale = calibrate::REFERENCE_S / r.cal_s;
                }
                "setup" => r.setups_s.push(num(rest)?),
                "run" => r.run_s.push(num(rest)?),
                "error" => r.errors.push(rest.to_string()),
                "e2e" | "layer" => {
                    let f: Vec<&str> = rest.split(' ').collect();
                    let [n, v, u] = f[..] else {
                        return Err(format!("bad metric line {line:?}"));
                    };
                    let m = if key == "e2e" {
                        &mut r.e2e
                    } else {
                        &mut r.layers
                    };
                    m.set(n, num(v)?, u);
                }
                _ => return Err(format!("unknown record key {key:?}")),
            }
        }
        if r.attempted == 0 || r.cal_s <= 0.0 {
            return Err("record without operations or calibration".into());
        }
        Ok(r)
    }

    /// Host seconds inside `Sim::run`, at the reference host speed.
    fn host_run_s(&self) -> f64 {
        self.run_s.iter().sum::<f64>() * self.scale
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run one repetition and print its record (internal).
    child: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <fleet|bulk|kv> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut child = false;
    let bit = |flag: &str, val: &str| match val {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} {val}: want 0 or 1")),
    };
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(bit(&flag, &val)?),
            "--child" => child = bit(&flag, &val)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["fleet", "bulk", "kv"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        child,
    })
}

/// Runs one repetition in a fresh child process and waits for it.
fn spawn_rep(args: &Args, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", "0"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--child", "1"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!("repetition exited with {}", out.status));
    }
    Rep::from_record(&String::from_utf8_lossy(&out.stdout))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let run = match args.workload.as_str() {
            "fleet" => fleet::run,
            "bulk" => bulk::run,
            _ => kv::run,
        };
        let mut rep = Rep::from_run(&run(args.seed, args.trace));
        // After the peak RSS is read, so the kernel's buffers stay out of it.
        rep.cal_s = calibrate::measure();
        print!("{}", rep.to_record());
        return ExitCode::SUCCESS;
    }
    match measure(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn measure(args: &Args) -> Result<ExitCode, String> {
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        let r = spawn_rep(args, false)?;
        eprintln!(
            "perfbench: {} rep {}: setup {:.3}s run {:.3}s at reference speed ({:.2}x)",
            args.workload,
            plain.len() + 1,
            r.setups_s.iter().sum::<f64>() * r.scale,
            r.host_run_s(),
            r.scale
        );
        plain.push(r);
        if args.trace {
            traced.push(spawn_rep(args, true)?);
        }
        let per_rep = t0.elapsed() / plain.len() as u32;
        if plain.len() >= MIN_REPS && t0.elapsed() + per_rep > budget {
            break;
        }
    }

    let first = &plain[0];
    let mut errors: BTreeSet<String> = plain
        .iter()
        .chain(&traced)
        .flat_map(|r| r.errors.iter().cloned())
        .collect();
    if plain.iter().any(|r| r.fingerprint != first.fingerprint) {
        errors.insert("determinism: same-seed repetitions differ in virtual time".into());
    }
    if traced.iter().any(|r| r.fingerprint != first.fingerprint) {
        errors.insert("trace: traced run's virtual results differ from the untraced run".into());
    }

    let med = |f: &dyn Fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let host_run: Vec<f64> = plain.iter().map(Rep::host_run_s).collect();
    let setups: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.setups_s.iter().map(|s| s * r.scale))
        .collect();
    eprintln!(
        "perfbench: {} reps, host run spread {:.3}, setup spread {:.3}",
        plain.len(),
        quartile_spread(&host_run),
        quartile_spread(&setups)
    );
    let metrics = if args.trace {
        let mut m = traced[0].layers.clone();
        m.set("sim.run_host_s", median(&host_run), "s");
        for i in 0..4 {
            let rung = med(&|r| r.run_s.get(i).map_or(0.0, |s| s * r.scale));
            m.set(&format!("sim.run_host_s.rung{}", i + 1), rung, "s");
        }
        m.set("mem.mmap_host_s", med(&|r| r.mmap_s * r.scale), "s");
        m.set(
            "core.register_host_s",
            med(&|r| r.register_s * r.scale),
            "s",
        );
        m.set("host.calibration_s", med(&|r| r.cal_s), "s");
        let traced_run: Vec<f64> = traced.iter().map(Rep::host_run_s).collect();
        m.set(
            "trace.overhead_frac",
            median(&traced_run) / median(&host_run) - 1.0,
            "frac",
        );
        m
    } else {
        let mut m = first.e2e.clone();
        m.set(
            "host_ns_per_op",
            med(&|r| r.host_run_s() * 1e9 / r.attempted as f64),
            "ns",
        );
        m.set(
            "sim_gb_per_host_s",
            med(&|r| r.payload_bytes as f64 / r.host_run_s() / 1e9),
            "GB/s",
        );
        m.set("setup_s", median(&setups), "s");
        m.set("peak_rss_mb", med(&|r| r.rss_bytes as f64 / 1e6), "MB");
        m
    };
    for (name, v, _) in &metrics.0 {
        if !v.is_finite() {
            errors.insert(format!("metric {name} is not finite"));
        }
    }

    for e in &errors {
        eprintln!("perfbench: FAILED {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        errors.is_empty(),
        first.attempted,
        first.failed,
        metrics.to_json()
    );
    Ok(if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let mut e2e = Metrics::default();
        e2e.set("op_p99_us", 16.316, "us");
        e2e.set("goodput_gbps", 11.930_712_345_678_9, "GB/s");
        let mut layers = Metrics::default();
        layers.set("hw.dma_share", 0.282_237_223_980_019_44, "frac");
        let r = Rep {
            fingerprint: u64::MAX - 7,
            attempted: 2300,
            failed: 1,
            payload_bytes: 1 << 40,
            setups_s: vec![0.1, 0.25],
            run_s: vec![1.5],
            mmap_s: 0.01,
            register_s: 0.02,
            rss_bytes: 12_009_472,
            errors: vec!["kv: 1 replies differ\nfrom the last SET value".into()],
            e2e,
            layers,
            cal_s: 0.081,
            scale: 1.0,
        };
        let back = Rep::from_record(&r.to_record()).expect("parses");
        assert_eq!(back.fingerprint, r.fingerprint);
        assert_eq!(back.attempted, r.attempted);
        assert_eq!(back.failed, r.failed);
        assert_eq!(back.payload_bytes, r.payload_bytes);
        assert_eq!(back.setups_s, r.setups_s);
        assert_eq!(back.run_s, r.run_s);
        assert_eq!(back.rss_bytes, r.rss_bytes);
        assert_eq!(back.cal_s, r.cal_s);
        assert_eq!(back.scale, calibrate::REFERENCE_S / r.cal_s);
        assert_eq!(
            back.errors,
            vec!["kv: 1 replies differ from the last SET value"]
        );
        assert_eq!(back.e2e, r.e2e);
        assert_eq!(back.layers, r.layers);
        assert!(
            Rep::from_record("fp 1\n").is_err(),
            "a record needs operations"
        );
    }

    #[test]
    fn args_are_checked() {
        let args = |s: &str| parse_args(s.split(' ').map(String::from));
        let a = args("--workload kv --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.child),
            ("kv", 3, 10, true, false)
        );
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(args("--workload kv --seed 3 --seconds 10 --trace 2").is_err());
        assert!(args("--workload kv --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload kv --seconds 10 --trace 0").is_err());
        assert!(args("--workload kv --seed 3 --seconds 10 --trace").is_err());
    }
}
