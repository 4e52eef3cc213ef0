//! Record/replay differential tests over the full service stack
//! (DESIGN.md §14). A seeded fault-injected run is recorded; replaying
//! the trace must reproduce the run bit-for-bit — same end-of-time
//! timestamp, same stats, same destination bytes, and a re-recorded
//! event log that encodes to the same bytes. Perturbing the log must
//! make the divergence checker fire at the first bad round.

use std::rc::Rc;

use copier::core::CopierConfig;
use copier::mem::Prot;
use copier::os::Os;
use copier::sim::{FaultConfig, FaultPlan, Machine, Sim, SimRng, Trace, TraceEvent, Tracer};

/// What one run produces, everything that must be reproducible.
#[derive(Debug, PartialEq)]
struct RunOut {
    end: u64,
    stats: Vec<u64>,
    digest: u64,
}

/// One fault-injected copy workload (modeled on tests/determinism.rs),
/// optionally recorded into or replayed from a tracer. The workload data
/// derives from `seed`; the fault schedule from `plan_seed` — split so a
/// replay can run under a *different* plan seed and still be checked
/// bit-identical, proving every draw came from the log.
fn traced_run(seed: u64, plan_seed: u64, tracer: Option<Rc<Tracer>>) -> RunOut {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 2048);
    let plan = FaultPlan::new(FaultConfig {
        seed: plan_seed,
        dma_transient_prob: 0.3,
        dma_hard_prob: 0.05,
        dma_timeout_prob: 0.1,
        atc_stale_prob: 0.3,
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
    let lib = proc.lib();
    let uspace = Rc::clone(&lib.uspace);
    let len = 96 * 1024;
    let mut bufs = Vec::new();
    let mut data = vec![0u8; len];
    let fill = SimRng::new(seed ^ 0xF111);
    for i in 0..4usize {
        let src = uspace.mmap(len, Prot::RW, true).unwrap();
        let dst = uspace.mmap(len, Prot::RW, true).unwrap();
        for b in data.iter_mut() {
            *b = (fill.next_u64() >> (8 * (i % 8))) as u8;
        }
        uspace.write_bytes(src, &data).unwrap();
        bufs.push((src, dst));
    }
    let lib2 = Rc::clone(&lib);
    let svc2 = Rc::clone(&svc);
    let core = os.machine.core(0);
    let bufs2 = bufs.clone();
    sim.spawn("client", async move {
        for &(src, dst) in &bufs2 {
            let _ = lib2.amemcpy(&core, dst, src, len).await;
        }
        let _ = lib2.csync_all(&core).await;
        svc2.stop();
    });
    let end = sim.run();
    let s = svc.stats();
    let stats = vec![
        s.tasks_completed,
        s.bytes_copied,
        s.faults,
        s.retries,
        s.fallback_bytes,
        s.quarantined_channels,
        s.dispatch.dma_wait.as_nanos(),
        s.dispatch.retries,
    ];
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut got = vec![0u8; len];
    for &(_src, dst) in &bufs {
        uspace.read_bytes(dst, &mut got).unwrap();
        for &b in &got {
            digest = (digest ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    RunOut {
        end: end.as_nanos(),
        stats,
        digest,
    }
}

/// Recording charges no virtual time: a traced run is byte-identical to
/// an untraced one.
#[test]
fn recording_does_not_perturb_the_run() {
    let plain = traced_run(0xC0DE, 0xC0DE, None);
    let rec = Tracer::record();
    let traced = traced_run(0xC0DE, 0xC0DE, Some(Rc::clone(&rec)));
    assert_eq!(plain, traced, "tracing changed the execution");
    let trace = rec.finish();
    assert!(trace.rounds() > 0, "no rounds recorded");
}

/// The core differential: record → replay → bit-identical outputs, no
/// divergence, and a byte-identical re-recorded log. The replay consumes
/// its fault draws from the log, so it holds even though the replay's
/// fault plan is seeded differently.
#[test]
fn recorded_run_replays_bit_identically() {
    for seed in [0xC0DEu64, 7, 0xFEED_F00D] {
        let rec = Tracer::record();
        let a = traced_run(seed, seed, Some(Rc::clone(&rec)));
        let trace = rec.finish();

        // Replay under a *different* fault-plan seed: every draw must
        // come from the log, not the plan's RNG, or the checker fires.
        let rep = Tracer::replay(trace.clone());
        let b = traced_run(seed, seed ^ 0xBAD_5EED, Some(Rc::clone(&rep)));
        if let Some(d) = rep.divergence() {
            panic!("seed {seed:#x}: replay diverged: {d}");
        }
        assert_eq!(a.end, b.end, "seed {seed:#x}: end time differs");
        assert_eq!(a.stats, b.stats, "seed {seed:#x}: stats differ");
        assert_eq!(a.digest, b.digest, "seed {seed:#x}: memory differs");
        assert_eq!(
            rep.finish().encode(),
            trace.encode(),
            "seed {seed:#x}: re-recorded trace differs"
        );
    }
}

/// Perturbing one recorded round-end hash makes the checker fire exactly
/// there: the first bad round is named, nothing earlier.
#[test]
fn perturbed_round_hash_is_localized() {
    let rec = Tracer::record();
    traced_run(42, 42, Some(Rc::clone(&rec)));
    let mut trace = rec.finish();

    // Corrupt the pending-set hash of a mid-stream ShardRoundEnd.
    let rounds: Vec<usize> = trace
        .events()
        .iter()
        .enumerate()
        .filter_map(|(i, e)| matches!(e, TraceEvent::ShardRoundEnd { .. }).then_some(i))
        .collect();
    assert!(rounds.len() >= 3, "need a few rounds to perturb the middle");
    let pos = rounds[rounds.len() / 2];
    let TraceEvent::ShardRoundEnd {
        shard,
        round,
        pending,
        index,
        stats,
    } = trace.events()[pos]
    else {
        unreachable!()
    };
    let corrupted = TraceEvent::ShardRoundEnd {
        shard,
        round,
        pending: pending ^ 1,
        index,
        stats,
    };
    trace.events_mut()[pos] = corrupted.clone();

    let rep = Tracer::replay(trace);
    traced_run(42, 42, Some(Rc::clone(&rep)));
    let d = rep.divergence().expect("perturbed hash must diverge");
    assert_eq!(d.pos, pos, "checker must stop at the corrupted event: {d}");
    assert_eq!(
        (d.shard, d.round),
        (shard, round),
        "checker must name the corrupted round: {d}"
    );
    assert_eq!(d.expected, Some(corrupted), "{d}");
}

/// Save/load round-trip through the wire format, end to end.
#[test]
fn saved_trace_replays_from_disk() {
    let rec = Tracer::record();
    let a = traced_run(99, 99, Some(Rc::clone(&rec)));
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).ok();
    let path = dir.join("trace_replay_roundtrip.cptr");
    rec.finish().save(&path).unwrap();

    let trace = Trace::load(&path).unwrap();
    let rep = Tracer::replay(trace);
    let b = traced_run(99, 99, Some(Rc::clone(&rep)));
    assert!(rep.divergence().is_none(), "{}", rep.divergence().unwrap());
    assert_eq!(a, b);
}
