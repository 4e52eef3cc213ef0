//! fig_hostperf — host wall-clock throughput of the fast-path copy engine.
//!
//! Unlike the fig* targets (which report *virtual-time* results of the
//! simulation), this bench measures how fast the engine itself moves real
//! bytes on the host: batched translation (`resolve_range`) plus
//! run-coalesced arena copies (`copy_run`), against the per-page baseline
//! (`resolve` per page + page-bounded `copy`) that the engine replaced.
//! Virtual-time outputs are unaffected by construction — see DESIGN.md §12.
//!
//! Layouts (all measured in a warm address space with a deep page table —
//! `DEPTH` background pages mapped, as in a long-running system):
//! - `translate-contig` — the gather-path translation stage alone:
//!   `resolve_range` walks the PTE range with one ordered scan, vs. one
//!   BTreeMap lookup per page. This is where the batching wins big; the
//!   ≥3× acceptance bar applies here.
//! - `gather-contig`  — translation + copy of a small hot window; the
//!   copy stage is memcpy-bound, so the end-to-end win is smaller.
//! - `gather-scattered` — same with fragmented frames: extents collapse
//!   to single pages, showing the bounded win without contiguity.
//! - `overlap-move`   — `memmove` within one region (arena `copy_within`
//!   vs. page-tiled moves).
//!
//! Simulator speed (DESIGN.md §19) — the performance a developer waits on:
//! - `sim_advance_speedup` — host ns per uncontended `Core::advance` of
//!   the task-driven reference core (`copier_bench::refcore`) over the
//!   driverless core, as interleaved min-of-N pairs (bar ≥ 1.2×);
//! - `idle_generation_ns` (unbarred) — host ns per idle generation of a
//!   4-shard service spinning with nothing to do.
//!
//! Writes `BENCH_hostperf.json` at the repo root (host GB/s per layout
//! plus suite wall-clock) — the seed point of the BENCH perf trajectory.
//! Set `HOSTPERF_SMOKE=1` for a tiny, fast run (CI smoke).

use std::rc::Rc;
use std::time::Instant;

use copier_bench::json::Json;
use copier_bench::refcore::ref_machine;
use copier_bench::{kb, paired_min_ms, section};
use copier_core::CopierConfig;
use copier_mem::{frames_of, AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr, PAGE_SIZE};
use copier_os::Os;
use copier_sim::{Machine, Nanos, Sim};
use copier_testkit::{black_box, Bench};

/// One measured layout: fast vs. per-page GB/s over the same bytes.
struct LayoutResult {
    name: &'static str,
    bytes: usize,
    fast_gbps: f64,
    paged_gbps: f64,
}

impl LayoutResult {
    fn speedup(&self) -> f64 {
        self.fast_gbps / self.paged_gbps
    }
}

fn gbps(bytes: usize, ns: u64) -> f64 {
    bytes as f64 / ns.max(1) as f64
}

/// A warm address space with `depth` mapped-and-touched background pages,
/// so the page table has the depth of a long-running process rather than
/// a ten-entry toy map.
fn deep_space(pm: &Rc<PhysMem>, depth: usize) -> Rc<AddressSpace> {
    let asp = AddressSpace::new(1, Rc::clone(pm));
    if depth > 0 {
        let bg = asp.mmap(depth * PAGE_SIZE, Prot::RW, true).unwrap();
        for p in 0..depth {
            asp.write_bytes(VirtAddr(bg.0 + (p * PAGE_SIZE) as u64), &[1u8])
                .unwrap();
        }
    }
    asp
}

/// Builds a populated RW mapping of `pages` pages filled with a pattern.
fn mapped(asp: &Rc<AddressSpace>, pages: usize, tag: u8) -> VirtAddr {
    let va = asp.mmap(pages * PAGE_SIZE, Prot::RW, true).unwrap();
    let data: Vec<u8> = (0..pages * PAGE_SIZE)
        .map(|i| (i % 251) as u8 ^ tag)
        .collect();
    asp.write_bytes(va, &data).unwrap();
    va
}

/// The engine fast path: one batched walk per side, then one `copy_run`
/// per extent pair. Extent lists are position-sliced against each other
/// the way the dispatcher's subtask splitter does, so fragmented sides
/// still pair correctly.
fn engine_fast(pm: &PhysMem, asp: &AddressSpace, dst: VirtAddr, src: VirtAddr, len: usize) {
    let (sx, _) = asp.resolve_range(src, len, false).unwrap();
    let (dx, _) = asp.resolve_range(dst, len, true).unwrap();
    let (mut si, mut di) = (0usize, 0usize);
    let (mut s_off, mut d_off) = (0usize, 0usize);
    let mut left = len;
    while left > 0 {
        let s = sx[si];
        let d = dx[di];
        let take = (s.len - s_off).min(d.len - d_off).min(left);
        pm.copy_run(d.frame, d.off + d_off, s.frame, s.off + s_off, take);
        s_off += take;
        d_off += take;
        if s_off == s.len {
            si += 1;
            s_off = 0;
        }
        if d_off == d.len {
            di += 1;
            d_off = 0;
        }
        left -= take;
    }
    asp.reset_fault_stats();
}

/// The per-page baseline the fast path replaced: resolve each page of
/// both sides independently, copy page by page.
fn engine_paged(pm: &PhysMem, asp: &AddressSpace, dst: VirtAddr, src: VirtAddr, len: usize) {
    let mut done = 0usize;
    while done < len {
        let s_va = src.add(done);
        let d_va = dst.add(done);
        let (sf, _) = asp.resolve(s_va, false).unwrap();
        let (df, _) = asp.resolve(d_va, true).unwrap();
        let take = (len - done)
            .min(PAGE_SIZE - s_va.page_off())
            .min(PAGE_SIZE - d_va.page_off());
        pm.copy(df, d_va.page_off(), sf, s_va.page_off(), take);
        done += take;
    }
    asp.reset_fault_stats();
}

/// Translation stage alone: both sides of a transfer, no byte movement.
/// GB/s here is bytes *gathered* per second.
fn run_translate(bench: &Bench, depth: usize, pages: usize) -> LayoutResult {
    let pm = Rc::new(PhysMem::new(
        depth + pages * 2 + 64,
        AllocPolicy::Sequential,
    ));
    let asp = deep_space(&pm, depth);
    let src = mapped(&asp, pages, 0x00);
    let dst = mapped(&asp, pages, 0xFF);
    let len = pages * PAGE_SIZE;

    let fast = bench.run_and_print("translate-contig/fast", || {
        let (sx, _) = asp.resolve_range(src, black_box(len), false).unwrap();
        let (dx, _) = asp.resolve_range(dst, len, true).unwrap();
        black_box((sx, dx));
        asp.reset_fault_stats();
    });
    let paged = bench.run_and_print("translate-contig/paged", || {
        let mut done = 0usize;
        while done < len {
            let (sf, _) = asp.resolve(src.add(done), false).unwrap();
            let (df, _) = asp.resolve(dst.add(done), true).unwrap();
            black_box((sf, df));
            done += PAGE_SIZE;
        }
        asp.reset_fault_stats();
    });
    // Sanity: the batched walk must see the exact frames the per-page
    // walk sees.
    let (sx, _) = asp.resolve_range(src, len, false).unwrap();
    let per_page: Vec<_> = (0..pages)
        .map(|p| asp.resolve(src.add(p * PAGE_SIZE), false).unwrap().0)
        .collect();
    assert_eq!(frames_of(&sx), per_page, "batched vs per-page frames");
    asp.reset_fault_stats();

    LayoutResult {
        name: "translate-contig",
        bytes: len,
        fast_gbps: gbps(len, fast.median_ns()),
        paged_gbps: gbps(len, paged.median_ns()),
    }
}

/// Full gather engine (translate + copy) over a hot window.
fn run_gather(
    bench: &Bench,
    name: &'static str,
    policy: AllocPolicy,
    depth: usize,
    pages: usize,
) -> LayoutResult {
    let pm = Rc::new(PhysMem::new(depth + pages * 2 + 64, policy));
    let asp = deep_space(&pm, depth);
    let src = mapped(&asp, pages, 0x00);
    let dst = mapped(&asp, pages, 0xFF);
    let len = pages * PAGE_SIZE;

    let fast = bench.run_and_print(&format!("{name}/fast"), || {
        engine_fast(&pm, &asp, dst, src, black_box(len));
    });
    let paged = bench.run_and_print(&format!("{name}/paged"), || {
        engine_paged(&pm, &asp, dst, src, black_box(len));
    });
    // Sanity: both paths must have produced identical destination bytes.
    let mut a = vec![0u8; len];
    let mut b = vec![0u8; len];
    asp.read_bytes(src, &mut a).unwrap();
    asp.read_bytes(dst, &mut b).unwrap();
    assert_eq!(a, b, "{name}: dst must equal src after the copy");

    LayoutResult {
        name,
        bytes: len,
        fast_gbps: gbps(len, fast.median_ns()),
        paged_gbps: gbps(len, paged.median_ns()),
    }
}

/// Overlapping in-region move: `memmove` semantics through the arena
/// (single `copy_within`) vs. page-tiled moves (`copy_run_paged`).
fn run_overlapping(bench: &Bench, pages: usize) -> LayoutResult {
    let pm = Rc::new(PhysMem::new(pages + 64, AllocPolicy::Sequential));
    let base = pm.alloc_contiguous(pages).unwrap();
    let shift = 1500usize; // non-page-aligned, heavily overlapping
    let len = (pages - 1) * PAGE_SIZE;
    let data: Vec<u8> = (0..len).map(|i| (i % 249) as u8).collect();
    pm.write_run(base, 0, &data);

    let fast = bench.run_and_print("overlap-move/fast", || {
        pm.copy_run(base, shift, base, 0, black_box(len));
    });
    let paged = bench.run_and_print("overlap-move/paged", || {
        pm.copy_run_paged(base, shift, base, 0, black_box(len));
    });
    // Sanity on a fresh buffer: a single shifted move preserves the data.
    pm.write_run(base, 0, &data);
    pm.copy_run(base, shift, base, 0, len);
    let mut got = vec![0u8; len];
    pm.read_run(base, shift, &mut got);
    assert_eq!(got, data, "overlapping move must have memmove semantics");

    LayoutResult {
        name: "overlap-move",
        bytes: len,
        fast_gbps: gbps(len, fast.median_ns()),
        paged_gbps: gbps(len, paged.median_ns()),
    }
}

/// One task making `n` uncontended 80 ns advances on core 0, on the
/// reference or the driverless core.
fn advance_loop(n: u64, reference: bool) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let step = Nanos(80);
    if reference {
        let core = Rc::clone(&ref_machine(&h, 1)[0]);
        sim.spawn("w", async move {
            for _ in 0..n {
                core.advance(step).await;
            }
        });
    } else {
        let core = Machine::new(&h, 1).core(0);
        sim.spawn("w", async move {
            for _ in 0..n {
                core.advance(step).await;
            }
        });
    }
    black_box(sim.run());
}

/// Host ns per idle generation of a 4-shard service with no clients,
/// over `virt` of virtual time (spins, parks and wake-ups included).
fn idle_generation_ns(virt: Nanos) -> (f64, u64) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let os = Os::boot(&h, Machine::new(&h, 4), 64);
    let svc = os.install_copier(
        os.machine.cores().to_vec(),
        CopierConfig {
            shards: 4,
            ..Default::default()
        },
    );
    let t0 = Instant::now();
    sim.run_until(virt);
    let ns = t0.elapsed().as_nanos() as f64;
    let generations = svc.stats().idle_polls / 4;
    svc.stop();
    sim.run();
    (ns / generations.max(1) as f64, generations)
}

fn main() {
    let smoke = std::env::var("HOSTPERF_SMOKE").is_ok_and(|v| v == "1");
    let bench = if smoke {
        Bench::fast()
    } else {
        Bench::default()
    };
    // Background mapping depth: 128 MB full / 8 MB smoke of warm pages.
    let depth = if smoke { 2048 } else { 32768 };
    let t0 = Instant::now();

    section("fig_hostperf: host copy-engine throughput (wall clock)");
    println!(
        "  mode: {}, page-table depth: {depth} pages",
        if smoke { "smoke" } else { "full" }
    );
    let results = vec![
        run_translate(&bench, depth, if smoke { 64 } else { 256 }),
        run_gather(&bench, "gather-contig", AllocPolicy::Sequential, depth, 4),
        run_gather(&bench, "gather-scattered", AllocPolicy::Scattered, depth, 4),
        run_overlapping(&bench, if smoke { 16 } else { 1024 }),
    ];
    section("simulator speed (host wall clock)");
    let advances: u64 = if smoke { 2_000 } else { 200_000 };
    let (ref_ms, new_ms) = paired_min_ms(
        if smoke { 3 } else { 15 },
        || advance_loop(advances, true),
        || advance_loop(advances, false),
    );
    let advance_speedup = ref_ms / new_ms;
    println!(
        "  uncontended advance: reference {:.1} ns, driverless {:.1} ns ({advance_speedup:.2}x)",
        ref_ms * 1e6 / advances as f64,
        new_ms * 1e6 / advances as f64,
    );
    let (gen_ns, generations) = idle_generation_ns(if smoke {
        Nanos::from_millis(2)
    } else {
        Nanos::from_millis(200)
    });
    println!("  idle 4-shard generation: {gen_ns:.1} ns over {generations} generations");
    let suite_ms = t0.elapsed().as_secs_f64() * 1e3;

    section("summary (GB/s, higher is better)");
    for r in &results {
        println!(
            "  {:<17} {:>6}  fast={:>7.2} GB/s  paged={:>7.2} GB/s  speedup={:.2}x",
            r.name,
            kb(r.bytes),
            r.fast_gbps,
            r.paged_gbps,
            r.speedup()
        );
    }

    let json = Json::obj([
        ("bench", Json::Str("fig_hostperf".into())),
        ("smoke", Json::Bool(smoke)),
        ("depth_pages", Json::Int(depth as u64)),
        ("suite_ms", Json::Num(suite_ms)),
        (
            "sim",
            Json::obj([
                ("advances", Json::Int(advances)),
                (
                    "reference_ns_per_advance",
                    Json::Num(ref_ms * 1e6 / advances as f64),
                ),
                (
                    "driverless_ns_per_advance",
                    Json::Num(new_ms * 1e6 / advances as f64),
                ),
                ("idle_generation_ns", Json::Num(gen_ns)),
                ("idle_generations", Json::Int(generations)),
            ]),
        ),
        (
            "layouts",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::Str(r.name.into())),
                            ("bytes", Json::Int(r.bytes as u64)),
                            ("fast_gbps", Json::Num(r.fast_gbps)),
                            ("paged_gbps", Json::Num(r.paged_gbps)),
                            ("speedup", Json::Num(r.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "summary",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        // overlap-move is memmove-bound either way: parity
                        // is the honest expectation, so its bar is only a
                        // no-regression check. The translate/gather paths
                        // must actually win.
                        let bar = if r.name == "overlap-move" { 0.8 } else { 1.0 };
                        Json::summary(
                            &format!("speedup_{}", r.name),
                            "speedup_min",
                            bar,
                            r.speedup(),
                        )
                    })
                    .chain([Json::summary(
                        "sim_advance_speedup",
                        "speedup_min",
                        1.2,
                        advance_speedup,
                    )])
                    .collect(),
            ),
        ),
    ]);
    // The bench binary runs with the package root as cwd; anchor the
    // output at the repo root so every BENCH_*.json lands in one place.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hostperf.json");
    json.write_file(path).expect("write BENCH_hostperf.json");
    println!("\n  wrote {path} (suite {suite_ms:.0} ms)");
}
