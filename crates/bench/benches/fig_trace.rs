//! fig_trace — record overhead and replay fidelity of the trace layer.
//!
//! Three sections over a fig07-class unit-copy workload (N× 256 KB
//! amemcpy + csync_all through the full service stack, faults injected):
//!
//! - `record` — host wall-clock of the same run untraced vs. recorded,
//!   as minima over interleaved pairs. Recording is host-side only
//!   (virtual time is identical by construction — asserted here), so the
//!   overhead is event append plus memory digests; the acceptance bar is
//!   ≤ 10%.
//! - `replay` — the recorded trace replayed in lockstep: no divergence,
//!   the same virtual end time, and a re-recorded log that encodes to
//!   the same bytes as the original.
//! - `divergence` — one recorded DMA draw is flipped; the checker must
//!   fire at (or just after) the perturbed round, never before.
//!
//! Writes `BENCH_trace.json` at the repo root. `TRACE_SMOKE=1` shrinks
//! the workload for CI.

use std::rc::Rc;
use std::time::Instant;

use copier::client::CopierHandle;
use copier::core::CopierConfig;
use copier::mem::Prot;
use copier::os::Os;
use copier::sim::{FaultConfig, FaultPlan, Machine, Sim, Trace, TraceEvent, Tracer};
use copier_bench::json::Json;
use copier_bench::{kb, paired_min_ms, section};

struct RunOut {
    end: u64,
    events: usize,
}

/// One fig07-class run: `ncopies` unit copies of `len` bytes, faults
/// injected, optionally traced.
fn run_once(ncopies: usize, len: usize, seed: u64, tracer: Option<Rc<Tracer>>) -> RunOut {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    // 4x the buffer frames plus slack: the workload must stay far below
    // the pressure watermark or every copy degrades to the sync CPU path
    // and the DMA draw stream this bench measures never happens.
    let os = Os::boot(&h, machine, (ncopies * len) / 4096 * 4 + 4096);
    let plan = FaultPlan::new(FaultConfig {
        seed,
        dma_transient_prob: 0.2,
        dma_hard_prob: 0.0,
        dma_timeout_prob: 0.1,
        atc_stale_prob: 0.2,
        ..Default::default()
    });
    if let Some(t) = &tracer {
        t.emit(TraceEvent::Meta { key: 1, val: seed });
        plan.set_tracer(t);
    }
    let svc = os.install_copier(
        vec![os.machine.core(1)],
        CopierConfig {
            use_dma: true,
            dma_channels: 2,
            fault_plan: Some(Rc::clone(&plan)),
            tracer: tracer.clone(),
            ..Default::default()
        },
    );
    let proc = os.spawn_process();
    let lib: Rc<CopierHandle> = proc.lib();
    let uspace = Rc::clone(&lib.uspace);
    let mut bufs = Vec::new();
    for i in 0..ncopies {
        let src = uspace.mmap(len, Prot::RW, true).unwrap();
        let dst = uspace.mmap(len, Prot::RW, true).unwrap();
        let data: Vec<u8> = (0..len)
            .map(|b| (b as u64 ^ seed ^ i as u64) as u8)
            .collect();
        uspace.write_bytes(src, &data).unwrap();
        bufs.push((src, dst));
    }
    let lib2 = Rc::clone(&lib);
    let svc2 = Rc::clone(&svc);
    let core = os.machine.core(0);
    sim.spawn("client", async move {
        for &(src, dst) in &bufs {
            let _ = lib2.amemcpy(&core, dst, src, len).await;
        }
        let _ = lib2.csync_all(&core).await;
        svc2.stop();
    });
    let end = sim.run();
    assert_eq!(
        svc.stats().degraded_sync_copies,
        0,
        "workload tripped pressure degradation — grow the frame pool"
    );
    RunOut {
        end: end.as_nanos(),
        events: tracer.map_or(0, |t| t.events_len()),
    }
}

fn main() {
    let smoke = std::env::var("TRACE_SMOKE").is_ok_and(|v| v == "1");
    let (ncopies, len, reps) = if smoke {
        (8, 64 * 1024, 3)
    } else {
        (64, 256 * 1024, 27)
    };
    let seed = 0x7ACE_D00Du64;
    let bytes = (ncopies * len) as u64;
    let t0 = Instant::now();

    section("fig_trace: record overhead (host wall clock)");
    println!(
        "  mode: {}, workload: {ncopies} x {} (fig07-class)",
        if smoke { "smoke" } else { "full" },
        kb(len)
    );
    let (base_ms, traced_ms) = paired_min_ms(
        reps,
        || {
            run_once(ncopies, len, seed, None);
        },
        || {
            run_once(ncopies, len, seed, Some(Tracer::record()));
        },
    );
    let overhead = traced_ms / base_ms - 1.0;

    // Recording must not perturb virtual time, and the trace must be
    // non-trivial or the overhead number is vacuous.
    let plain = run_once(ncopies, len, seed, None);
    let rec = Tracer::record();
    let recorded = run_once(ncopies, len, seed, Some(Rc::clone(&rec)));
    assert_eq!(plain.end, recorded.end, "tracing perturbed virtual time");
    let trace = rec.finish();
    let trace_bytes = trace.encode().len();
    println!(
        "  base={base_ms:.2} ms  traced={traced_ms:.2} ms  overhead={:.1}%  events={} ({} bytes)",
        overhead * 100.0,
        recorded.events,
        trace_bytes
    );

    section("fig_trace: replay fidelity");
    let rep = Tracer::replay(trace.clone());
    // Different fault-plan seed: every draw must come from the log.
    let replayed = run_once(ncopies, len, seed, Some(Rc::clone(&rep)));
    let identical = rep.divergence().is_none()
        && replayed.end == recorded.end
        && rep.finish().encode() == trace.encode();
    println!(
        "  divergence={:?}  end {} vs {}  identical={identical}",
        rep.divergence().map(|d| d.round),
        replayed.end,
        recorded.end
    );
    assert!(identical, "faithful replay must be bit-identical");

    section("fig_trace: divergence localization");
    let mut round = 0u64;
    let mut hit = None;
    for (i, e) in trace.events().iter().enumerate() {
        match e {
            TraceEvent::ShardRoundStart { round: r, .. } => round = *r,
            // Perturb a draw from the middle third of the stream so there
            // is a healthy replayed prefix before the flip.
            TraceEvent::DmaDraw { .. } if hit.is_none() && i > trace.events().len() / 3 => {
                hit = Some((i, round))
            }
            _ => {}
        }
    }
    let (pos, injected_round) = hit.expect("workload injected no DMA draws");
    let mut bad = trace.clone();
    let TraceEvent::DmaDraw { fault } = bad.events()[pos] else {
        unreachable!()
    };
    bad.events_mut()[pos] = TraceEvent::DmaDraw {
        fault: if fault == 0 { 1 } else { 0 },
    };
    let rep2 = Tracer::replay(bad);
    run_once(ncopies, len, seed, Some(Rc::clone(&rep2)));
    let d = rep2.divergence().expect("perturbed replay must diverge");
    println!(
        "  injected at round {injected_round} (event {pos}), detected at round {} (event {})",
        d.round, d.pos
    );
    assert!(d.pos > pos, "checker fired before the perturbation");
    assert!(
        d.round >= injected_round,
        "checker fired before the bad round"
    );
    if !smoke {
        // Acceptance bar (full mode only; smoke runs are too short for a
        // stable wall-clock ratio): recording costs at most 10%.
        assert!(
            overhead <= 0.10,
            "record overhead {:.1}% exceeds the 10% bar",
            overhead * 100.0
        );
    }

    let suite_ms = t0.elapsed().as_secs_f64() * 1e3;
    let json = Json::obj([
        ("bench", Json::Str("fig_trace".into())),
        ("smoke", Json::Bool(smoke)),
        ("suite_ms", Json::Num(suite_ms)),
        (
            "record",
            Json::obj([
                ("base_ms", Json::Num(base_ms)),
                ("traced_ms", Json::Num(traced_ms)),
                ("overhead_frac", Json::Num(overhead)),
                ("events", Json::Int(recorded.events as u64)),
                ("trace_bytes", Json::Int(trace_bytes as u64)),
                ("workload_bytes", Json::Int(bytes)),
            ]),
        ),
        (
            "replay",
            Json::obj([
                ("identical", Json::Bool(identical)),
                ("rounds", Json::Int(trace.rounds() as u64)),
                ("events", Json::Int(trace.events().len() as u64)),
            ]),
        ),
        (
            "divergence",
            Json::obj([
                ("injected_round", Json::Int(injected_round)),
                ("detected_round", Json::Int(d.round)),
            ]),
        ),
        (
            "summary",
            Json::Arr(vec![
                Json::summary("record_overhead", "frac_max", 0.10, overhead),
                Json::summary(
                    "replay_identical",
                    "flag_min",
                    1.0,
                    if identical { 1.0 } else { 0.0 },
                ),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    json.write_file(path).expect("write BENCH_trace.json");
    println!("\n  wrote {path} (suite {suite_ms:.0} ms)");
    let _ = Trace::decode(&trace.encode()).expect("wire format self-check");
}
