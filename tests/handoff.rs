//! Full-stack cover for the serial scheduler's hand-off between procs (the
//! detailed suite is `crates/sim/tests/handoff.rs`): the whole stack —
//! ARQ transport, message-driven runtime, distributed locks and barriers —
//! runs with parking procs driving the event loop, and what the runner
//! reports must not depend on whose stack popped the deciding event.
//! The pinned values move with the protocol, never with the scheduler:
//! they were first recorded on the thread-per-proc, runner-in-the-middle
//! scheduler two designs ago.

use carlos::core::{CoreConfig, Runtime};
use carlos::lrc::LrcConfig;
use carlos::sim::time::{ms, us};
use carlos::sim::transport::AckMode;
use carlos::sim::{Cluster, FaultPlan, SimConfig, SimError, SimReport};
use carlos::sync::{BarrierSpec, LockSpec};

const N: usize = 4;

const ARQ: AckMode = AckMode::Arq {
    window: 16,
    rto: ms(5),
};

/// Four nodes increment one shared counter under a contended lock, with a
/// barrier every few rounds: small messages, and a park on almost every
/// operation.
fn contended_counter(sim: SimConfig) -> Result<SimReport, SimError> {
    let mut c = Cluster::new(sim.with_ack(ARQ), N);
    for node in 0..N as u32 {
        c.spawn_node(node, move |ctx| {
            let core = CoreConfig::fast_test().with_stall_timeout(ms(50));
            let mut rt = Runtime::new(ctx, LrcConfig::small_test(N), core);
            let sys = carlos::sync::install(&mut rt);
            let lock = LockSpec::new(1, 0);
            let barrier = BarrierSpec::global(9, 1);
            for epoch in 0..4u32 {
                for _ in 0..5 {
                    sys.acquire(&mut rt, lock);
                    let v = rt.read_u32(0);
                    rt.ctx().compute(us(7));
                    rt.write_u32(0, v + 1);
                    sys.release(&mut rt, lock);
                }
                sys.barrier(&mut rt, barrier, epoch);
            }
            assert_eq!(rt.read_u32(0), 4 * 5 * N as u32);
            // Stay up until everybody has fetched what that read needed.
            sys.barrier(&mut rt, barrier, 4);
            rt.shutdown();
        });
    }
    c.try_run()
}

#[test]
fn full_stack_outcomes_do_not_depend_on_who_drives() {
    // Clean run: fingerprint.
    let r = contended_counter(SimConfig::fast_test()).expect("clean run");
    assert_eq!(
        (
            r.elapsed,
            r.events_processed,
            r.net.messages,
            r.net.payload_bytes
        ),
        (1_983_624, 3_832, 1_120, 36_912)
    );

    // The event valve trips in mid-protocol, on whichever proc is driving.
    let valve = SimConfig {
        max_events: Some(2_000),
        ..SimConfig::fast_test()
    };
    match contended_counter(valve) {
        Err(SimError::MaxEvents { limit, at, crashed }) => {
            assert_eq!((limit, at), (2_000, 1_056_744));
            assert!(crashed.is_empty());
        }
        other => panic!("expected MaxEvents, got {other:?}"),
    }

    // The lock manager is paused, then fail-stopped: the runner executes
    // the crash, and a survivor's timeout turns it into an attributed
    // abort raised on a proc thread.
    let plan = FaultPlan::new(3).pause(0, us(300), us(600)).crash(0, ms(1));
    match contended_counter(SimConfig::fast_test().with_fault_plan(plan)) {
        Err(SimError::Aborted {
            node,
            context,
            crashed,
        }) => {
            assert_eq!(
                (node, context.as_str()),
                (3, "lock acquire 1 abandoned: node 0 is down")
            );
            assert_eq!(crashed, [0]);
        }
        other => panic!("expected an attributed abort, got {other:?}"),
    }
}
