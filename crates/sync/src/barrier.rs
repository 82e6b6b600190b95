//! TreadMarks-style barriers and the global garbage collection they host.
//!
//! "Each TreadMarks-style barrier is assigned a manager node. Clients
//! arriving at a barrier send RELEASE messages to the manager. If this is
//! a global barrier, RELEASE_NT messages can be used. The manager node
//! accepts the arrival messages to make itself consistent with all of the
//! client nodes. To signal the fall of the barrier, the manager sends
//! departure messages marked RELEASE to the client nodes. When each client
//! accepts the departure message, it becomes consistent with the manager
//! and, hence, with all of the other clients." (§3)
//!
//! A barrier also hosts the global garbage collection of consistency
//! records (§5.2): when any node's record storage has crossed its
//! threshold at its arrival, every node runs a collection round
//! ([`Runtime::collect`]) after the fall. The round needs no barrier: a
//! node over its threshold asks for one, and it runs at the next waits.

use carlos_core::{Annotation, Runtime};
use carlos_sim::NodeId;
use carlos_util::codec::{Decoder, Encoder};

use crate::{
    ids::{H_BARRIER_ARRIVE, H_BARRIER_DEPART},
    system::SyncSystem,
};

/// Identity and behaviour of a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierSpec {
    /// Application-chosen barrier id.
    pub id: u32,
    /// Manager node that collects arrivals and signals departure.
    pub manager: NodeId,
    /// Use RELEASE_NT arrivals (valid for *global* barriers, where the
    /// union of every member's own contribution is globally consistent).
    pub non_transitive: bool,
}

impl BarrierSpec {
    /// A global barrier using non-transitive arrivals (the TreadMarks way).
    #[must_use]
    pub fn global(id: u32, manager: NodeId) -> Self {
        Self {
            id,
            manager,
            non_transitive: true,
        }
    }

    /// A barrier whose arrivals are full RELEASE messages.
    #[must_use]
    pub fn full(id: u32, manager: NodeId) -> Self {
        Self {
            id,
            manager,
            non_transitive: false,
        }
    }
}

fn body(id: u32, epoch: u32, gc: bool) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(id);
    e.put_u32(epoch);
    e.put_u8(u8::from(gc));
    e.finish_vec()
}

fn parse(b: &[u8]) -> Option<(u32, u32, bool)> {
    let mut d = Decoder::new(b);
    let id = d.get_u32().ok()?;
    let epoch = d.get_u32().ok()?;
    let gc = d.get_u8().ok()? != 0;
    Some((id, epoch, gc))
}

impl SyncSystem {
    /// Waits at `barrier` until every node in the cluster has arrived.
    ///
    /// `epoch` must increase by one per use of the same barrier id on every
    /// node (applications typically keep a loop counter). When any node's
    /// consistency-record storage has crossed its GC threshold at its
    /// arrival, every node runs a collection round ([`Runtime::collect`])
    /// after the fall, before returning.
    ///
    /// With [`carlos_core::CoreConfig::stall_timeout`] armed, a stalled
    /// round probes exactly the stragglers (manager side) or the manager
    /// (client side), and a stalled barrier aborts the run through
    /// [`carlos_sim::abort`]; the collection round's waits are bounded
    /// the same way.
    pub fn barrier(&self, rt: &mut Runtime, barrier: BarrierSpec, epoch: u32) {
        let n = rt.num_nodes() as u32;
        rt.ctx().count("barrier.waits", 1);
        if n == 1 {
            return;
        }
        let me = rt.node_id();
        let want_gc_local = rt.gc_needed();
        if me == barrier.manager {
            // Collect n-1 arrivals; acceptance makes us consistent with all.
            let mut gc = want_gc_local;
            let mut arrived = vec![false; n as usize];
            arrived[me as usize] = true;
            let mut arrivals = 0;
            while arrivals < n - 1 {
                let missing = || (0..n).filter(|&p| !arrived[p as usize]).collect();
                let m = self.wait_sync(rt, &[H_BARRIER_ARRIVE], "barrier", barrier.id, missing);
                let Some((id, ep, client_gc)) = parse(&m.body) else {
                    rt.ctx().count("sync.malformed", 1);
                    continue;
                };
                assert_eq!(id, barrier.id, "arrival for a different barrier");
                assert_eq!(ep, epoch, "barrier epoch mismatch (overlapping use?)");
                arrived[m.origin as usize] = true;
                arrivals += 1;
                gc |= client_gc;
            }
            // Departures: full RELEASEs; every client becomes consistent
            // with us, hence with everyone.
            for peer in 0..n {
                if peer != me {
                    rt.send(
                        peer,
                        H_BARRIER_DEPART,
                        body(barrier.id, epoch, gc),
                        Annotation::Release,
                    );
                }
            }
            if gc {
                rt.collect();
            }
        } else {
            let annotation = if barrier.non_transitive {
                Annotation::ReleaseNt
            } else {
                Annotation::Release
            };
            rt.send(
                barrier.manager,
                H_BARRIER_ARRIVE,
                body(barrier.id, epoch, want_gc_local),
                annotation,
            );
            let m = self.wait_sync(rt, &[H_BARRIER_DEPART], "barrier", barrier.id, || {
                vec![barrier.manager]
            });
            let parsed = parse(&m.body);
            assert_eq!(
                parsed.map(|(id, ep, _)| (id, ep)),
                Some((barrier.id, epoch)),
                "departure for a different barrier or epoch (overlapping use?)"
            );
            if parsed.is_some_and(|(_, _, gc)| gc) {
                rt.collect();
            }
        }
    }
}
