//! `vortex`-like object database: B-tree indexes over object chains.
//! Most vertexes are referenced exactly once (index child slots, chain
//! links), so *Indeg=1* is the stable signature (paper Figure 7A:
//! Indeg=1 stable, 37.8–69.5 %).

use crate::{Input, Workload, WorkloadKind};
use faults::FaultPlan;
use heapmd::{HeapError, Process};
use rand::Rng;
use sim_ds::{SimBTree, SimDList};

heapmd::interned! {
    /// The names this program interns once per run.
    struct Names {
        main: func("vortex::main"),
        load_db: func("vortex::load_db"),
        transaction: func("vortex::transaction"),
        cleanup: func("vortex::cleanup"),
    }
}

/// The vortex-like object-database workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Vortex;

impl Workload for Vortex {
    fn name(&self) -> &'static str {
        "vortex"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Spec
    }

    fn default_frq(&self) -> u64 {
        200
    }

    fn run(&self, p: &mut Process, plan: &mut FaultPlan, input: &Input) -> Result<(), HeapError> {
        let names = Names::new(p);
        let mut rng = input.rng();
        // The shape decides how index-heavy vs. list-heavy the database
        // is; indeg=1 moves with the B-tree share.
        let index_keys = input.scaled(150 + (input.shape() * 250.0) as usize);
        let part_lists = 4 + (input.shape() * 8.0) as usize;
        let list_len = 8;
        let iterations = input.scaled(1400);

        p.enter(names.main);
        let mut index = SimBTree::new(p, "vortex.index")?;
        p.enter(names.load_db);
        for k in 0..index_keys as u64 {
            index.insert(p, plan, k.wrapping_mul(2654435761) % 1_000_000)?;
        }
        let mut parts: Vec<SimDList> = Vec::new();
        for i in 0..part_lists {
            let mut l = SimDList::new(p, "vortex.part")?;
            for j in 0..list_len {
                l.push_back(p, plan, (i * list_len + j) as u64)?;
            }
            parts.push(l);
        }
        p.leave();

        for i in 0..iterations {
            p.enter(names.transaction);
            // Lookups dominate; inserts trickle in.
            index.contains(p, rng.gen_range(0..1_000_000))?;
            if i % 6 == 0 {
                index.insert(p, plan, rng.gen_range(0..1_000_000))?;
            }
            // Part-list churn: remove one node, append one.
            let k = rng.gen_range(0..parts.len());
            if let Some(front) = parts[k].front(p)? {
                parts[k].remove(p, front)?;
                parts[k].push_back(p, plan, i as u64)?;
            }
            p.leave();
        }

        p.enter(names.cleanup);
        for l in parts {
            l.free_all(p)?;
        }
        index.free_all(p)?;
        p.leave();
        p.leave();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::train;
    use heapmd::MetricKind;

    #[test]
    fn indeg1_is_stable_for_vortex() {
        let outcome = train(&Vortex, &Input::set(3));
        let sm = outcome
            .model
            .stable_metric(MetricKind::Indeg1)
            .expect("Indeg=1 must be globally stable for vortex");
        assert!(
            sm.min > 25.0,
            "index-dominated heap: [{:.1}, {:.1}]",
            sm.min,
            sm.max
        );
    }
}
