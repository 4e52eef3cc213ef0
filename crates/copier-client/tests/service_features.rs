//! Service-management features end to end: thread auto-scaling (§4.5.1),
//! cgroup `copier.shares` isolation (§4.5.2), queue backpressure,
//! scenario-driven activation (§5.3), and `shm_descr_bind` (Table 2).

use std::cell::RefCell;
use std::rc::Rc;

use copier_client::{AmemcpyOpts, CopierHandle};
use copier_core::{
    AdmissionConfig, Copier, CopierConfig, CopyFault, Handler, PollMode, SegDescriptor,
};
use copier_hw::CostModel;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot};
use copier_sim::{Machine, Nanos, Sim};

fn world(cores: usize, cfg: CopierConfig) -> (Sim, Rc<Machine>, Rc<PhysMem>, Rc<Copier>) {
    let sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, cores);
    let pm = Rc::new(PhysMem::new(65536, AllocPolicy::Scattered));
    let svc_cores = (1..cores).map(|i| machine.core(i)).collect();
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        svc_cores,
        Rc::new(CostModel::default()),
        cfg,
    );
    svc.start();
    (sim, machine, pm, svc)
}

#[test]
fn auto_scaling_adds_threads_under_load_and_sheds_them() {
    // Three service cores, one shard per core: barrier auto-scaling
    // chooses how many of the three threads serve the shards.
    let (mut sim, machine, pm, svc) = world(
        4,
        CopierConfig {
            shards: 3,
            auto_scale: true,
            high_load: 256 * 1024,
            low_load: 8 * 1024,
            ..Default::default()
        },
    );
    assert_eq!(svc.active_threads(), 1, "auto-scale starts at one thread");
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let core = machine.core(0);
    let svc2 = Rc::clone(&svc);
    let h = sim.handle();
    let peak = Rc::new(std::cell::Cell::new(0usize));
    let peak2 = Rc::clone(&peak);
    sim.spawn("load", async move {
        let len = 256 * 1024;
        let src = space.mmap(len, Prot::RW, true).unwrap();
        // Sustained heavy load: many large copies to distinct buffers.
        let mut dsts = Vec::new();
        for _ in 0..24 {
            let dst = space.mmap(len, Prot::RW, true).unwrap();
            lib.amemcpy(&core, dst, src, len).await.expect("admitted");
            dsts.push(dst);
            peak2.set(peak2.get().max(svc2.active_threads()));
        }
        for dst in &dsts {
            lib.csync(&core, *dst, len).await.unwrap();
            peak2.set(peak2.get().max(svc2.active_threads()));
        }
        // Idle: give the monitor time to shed threads.
        h.sleep(Nanos::from_millis(2)).await;
        lib.amemcpy(&core, dsts[0], src, 4096)
            .await
            .expect("admitted");
        lib.csync(&core, dsts[0], 4096).await.unwrap();
        h.sleep(Nanos::from_millis(2)).await;
        svc2.stop();
    });
    sim.run();
    assert!(
        peak.get() > 1,
        "sustained load should wake extra threads (peak {})",
        peak.get()
    );
    assert_eq!(svc.active_threads(), 1, "idle sheds back to one");
}

/// Aborted window entries retire at the abort (§4.4): a client that
/// submits and aborts more lazy copies than its in-flight quota, and
/// never csyncs, is never refused — every handler fires exactly once,
/// observing `Aborted`, and nothing lingers in the window or the index.
#[test]
fn aborted_lazy_copies_retire_without_csync() {
    const QUOTA: u64 = 8;
    const COPIES: usize = 5 * QUOTA as usize;
    let (mut sim, machine, pm, svc) = world(
        2,
        CopierConfig {
            admission: AdmissionConfig {
                max_client_tasks: QUOTA,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let core = machine.core(0);
    let fired: Rc<RefCell<Vec<Vec<Option<CopyFault>>>>> =
        Rc::new(RefCell::new(vec![Vec::new(); COPIES]));
    let (lib2, svc2, fired2, h) = (
        Rc::clone(&lib),
        Rc::clone(&svc),
        Rc::clone(&fired),
        sim.handle(),
    );
    sim.spawn("app", async move {
        let len = 16 * 1024;
        let src = space.mmap(len, Prot::RW, true).unwrap();
        let dst = space.mmap(len, Prot::RW, true).unwrap();
        for i in 0..COPIES {
            let d = Rc::new(SegDescriptor::new(len, svc2.config().segment));
            let (d2, log) = (Rc::clone(&d), Rc::clone(&fired2));
            let opts = AmemcpyOpts {
                func: Some(Handler::KFunc(Rc::new(move || {
                    log.borrow_mut()[i].push(d2.fault());
                }))),
                descr: Some(Rc::clone(&d)),
                lazy: true,
                ..Default::default()
            };
            let r = lib2._amemcpy(&core, dst, src, len, opts).await;
            assert!(r.is_ok(), "copy {i} refused: {:?}", r.err());
            // Let the copy drain into the window (it stays unexecuted for
            // the lazy period) so the abort finds it there.
            h.sleep(Nanos::from_micros(5)).await;
            lib2.abort_task(&core, &d, 0).await;
        }
        h.sleep(Nanos::from_micros(100)).await;
        svc2.stop();
    });
    sim.run();
    for (i, f) in fired.borrow().iter().enumerate() {
        assert_eq!(
            f,
            &[Some(CopyFault::Aborted)],
            "copy {i} handler deliveries"
        );
    }
    let set = lib.client.default_set();
    assert!(
        set.pending.borrow().is_empty(),
        "aborted entries left in the window"
    );
    assert!(set.index.is_empty(), "aborted entries left in the index");
    assert_eq!(lib.client.inflight_tasks.get(), 0, "in-flight quota leaked");
}

#[test]
fn cgroup_shares_divide_service_bandwidth() {
    let (mut sim, machine, pm, svc) = world(2, CopierConfig::default());
    // Two clients in cgroups with a 3:1 copier.shares ratio.
    let fast_g = svc.sched.create_cgroup("fast", 3072);
    let slow_g = svc.sched.create_cgroup("slow", 1024);
    let spaces: Vec<_> = (0..2)
        .map(|i| AddressSpace::new(i + 1, Rc::clone(&pm)))
        .collect();
    let libs: Vec<_> = spaces
        .iter()
        .map(|s| CopierHandle::new(&svc, Rc::clone(s)))
        .collect();
    libs[0].client.cgroup.set(fast_g);
    libs[1].client.cgroup.set(slow_g);
    let core = machine.core(0);
    let svc2 = Rc::clone(&svc);
    let h = sim.handle();
    let served = Rc::new(std::cell::Cell::new((0u64, 0u64)));
    let served2 = Rc::clone(&served);
    sim.spawn("load", async move {
        let len = 64 * 1024;
        // Keep both clients saturated with outstanding work.
        let mut bufs = Vec::new();
        for lib in &libs {
            let src = lib.uspace.mmap(len, Prot::RW, true).unwrap();
            let dsts: Vec<_> = (0..16)
                .map(|_| lib.uspace.mmap(len, Prot::RW, true).unwrap())
                .collect();
            bufs.push((src, dsts));
        }
        for round in 0..16 {
            for (lib, (src, dsts)) in libs.iter().zip(&bufs) {
                lib.amemcpy(&core, dsts[round], *src, len)
                    .await
                    .expect("admitted");
            }
        }
        // Let the service run for a bounded window, then compare shares.
        h.sleep(Nanos::from_micros(120)).await;
        served2.set((
            libs[0].client.copied_total.get(),
            libs[1].client.copied_total.get(),
        ));
        // Drain fully before teardown.
        for lib in &libs {
            lib.csync_all(&core).await.unwrap();
        }
        svc2.stop();
    });
    sim.run();
    let (fast, slow) = served.get();
    assert!(fast > 0 && slow > 0, "both cgroups make progress");
    let ratio = fast as f64 / slow as f64;
    assert!(
        (1.8..=4.5).contains(&ratio),
        "3:1 shares should yield ~3:1 service: got {fast} vs {slow} ({ratio:.2})"
    );
}

#[test]
fn queue_backpressure_spins_submitter_without_loss() {
    let (mut sim, machine, pm, svc) = world(
        2,
        CopierConfig {
            queue_cap: 8, // tiny ring → guaranteed overflow
            ..Default::default()
        },
    );
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let core = machine.core(0);
    let svc2 = Rc::clone(&svc);
    sim.spawn("flood", async move {
        let len = 32 * 1024;
        let src = space.mmap(len, Prot::RW, true).unwrap();
        space.write_bytes(src, &vec![3u8; len]).unwrap();
        let mut dsts = Vec::new();
        for _ in 0..64 {
            let dst = space.mmap(len, Prot::RW, true).unwrap();
            // Backs off (bounded) when the ring is full, then succeeds.
            lib.amemcpy(&core, dst, src, len).await.expect("admitted");
            dsts.push(dst);
        }
        lib.csync_all(&core).await.unwrap();
        for dst in dsts {
            let mut b = [0u8; 8];
            space.read_bytes(dst, &mut b).unwrap();
            assert_eq!(b, [3u8; 8]);
        }
        svc2.stop();
    });
    sim.run();
    assert_eq!(svc.stats().tasks_completed, 64, "nothing lost to overflow");
}

#[test]
fn scenario_driven_service_sleeps_until_activated() {
    let (mut sim, machine, pm, svc) = world(
        2,
        CopierConfig {
            polling: PollMode::ScenarioDriven,
            ..Default::default()
        },
    );
    svc.set_scenario_active(false);
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let core = machine.core(0);
    let svc2 = Rc::clone(&svc);
    let h = sim.handle();
    sim.spawn("app", async move {
        let src = space.mmap(4096, Prot::RW, true).unwrap();
        let dst = space.mmap(4096, Prot::RW, true).unwrap();
        space.write_bytes(src, b"scenario").unwrap();
        lib.amemcpy(&core, dst, src, 4096).await.expect("admitted");
        // Service inactive: nothing should complete.
        h.sleep(Nanos::from_micros(300)).await;
        assert_eq!(svc2.stats().tasks_completed, 0, "asleep outside scenario");
        // Activate the scenario: the task completes promptly.
        svc2.set_scenario_active(true);
        lib.csync(&core, dst, 4096).await.unwrap();
        assert_eq!(svc2.stats().tasks_completed, 1);
        svc2.stop();
    });
    sim.run();
}

#[test]
fn shm_descr_bind_syncs_by_offset() {
    let (mut sim, machine, pm, svc) = world(2, CopierConfig::default());
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let core = machine.core(0);
    let svc2 = Rc::clone(&svc);
    sim.spawn("app", async move {
        // A shared region receiving two messages at different offsets.
        let shm = space.mmap(64 * 1024, Prot::RW, true).unwrap();
        let binding = lib.shm_descr_bind(shm, 64 * 1024);
        let src = space.mmap(16 * 1024, Prot::RW, true).unwrap();
        space.write_bytes(src, &vec![0x11; 16 * 1024]).unwrap();

        let d1 = lib
            .amemcpy(&core, shm, src, 16 * 1024)
            .await
            .expect("admitted");
        binding.attach(0, 16 * 1024, d1);
        let d2 = lib
            .amemcpy(&core, shm.add(32 * 1024), src, 16 * 1024)
            .await
            .expect("admitted");
        binding.attach(32 * 1024, 16 * 1024, d2);

        // Consumer side: sync by region offset, not by descriptor.
        binding.csync_shm(&lib, &core, 0, 1024).await.unwrap();
        let mut b = [0u8; 8];
        space.read_bytes(shm, &mut b).unwrap();
        assert_eq!(b, [0x11; 8]);
        binding
            .csync_shm(&lib, &core, 32 * 1024, 16 * 1024)
            .await
            .unwrap();
        space.read_bytes(shm.add(48 * 1024 - 8), &mut b).unwrap();
        assert_eq!(b, [0x11; 8]);
        lib.csync_all(&core).await.unwrap();
        svc2.stop();
    });
    sim.run();
}
