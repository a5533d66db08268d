//! `mcf`-like network simplex: one large arc/node network where nearly
//! every object is referenced by something, so *Roots* hovers just
//! above zero (paper Figure 7A: Root stable, 0–5.4 %).

use crate::{Input, Workload, WorkloadKind};
use faults::FaultPlan;
use heapmd::{HeapError, Process};
use rand::Rng;
use sim_ds::{GraphShape, SimGraph, SimList};

heapmd::interned! {
    /// The names this program interns once per run.
    struct Names {
        main: func("mcf::main"),
        simplex_iteration: func("mcf::simplex_iteration"),
        cleanup: func("mcf::cleanup"),
    }
}

/// The mcf-like network-simplex workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mcf;

impl Workload for Mcf {
    fn name(&self) -> &'static str {
        "mcf"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Spec
    }

    fn default_frq(&self) -> u64 {
        60
    }

    fn run(&self, p: &mut Process, plan: &mut FaultPlan, input: &Input) -> Result<(), HeapError> {
        let names = Names::new(p);
        let mut rng = input.rng();
        let nodes = input.scaled(90);
        let avg_degree = 2 + (input.shape() * 2.0) as usize;
        let iterations = input.scaled(1500);

        p.enter(names.main);
        // The network is built once and stays; pricing sweeps touch it.
        let mut network = SimGraph::generate(
            p,
            plan,
            nodes,
            avg_degree,
            GraphShape::Uniform,
            input.seed,
            "mcf.network",
        )?;

        // Candidate-arc lists churn in a steady cycle.
        let mut candidates = SimList::new(p, "mcf.candidate");
        let cand_target = 10 + (input.shape() * 10.0) as usize;
        // Basis scratch: restructured at each refactorization (fan↔chain
        // leaves Roots — mcf's signature — untouched).
        let mut basis = crate::PhaseFlipper::with_style(
            p,
            input.scaled(8),
            "mcf.basis",
            crate::FlipStyle::FanChain,
        )?;

        for i in 0..iterations {
            p.enter(names.simplex_iteration);
            if candidates.len() < cand_target || rng.gen_bool(0.5) {
                candidates.push_front(p, i as u64)?;
            }
            if candidates.len() > cand_target {
                candidates.pop_front(p, plan)?;
            }
            if i % 8 == 0 {
                // Pricing: walk part of the network.
                network.bfs_touch(p)?;
            }
            if i % 200 == 0 {
                // Occasionally densify the basis with a fresh arc.
                let a = rng.gen_range(0..nodes);
                let b = rng.gen_range(0..nodes);
                network.add_edge(p, a, b)?;
            }
            if i % 64 == 0 {
                basis.touch_all(p)?;
            }
            p.leave();
            if i % 270 == 269 {
                basis.flip(p)?;
            }
        }

        p.enter(names.cleanup);
        basis.free_all(p)?;
        candidates.free_all(p)?;
        network.free_all(p)?;
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
    fn roots_stay_near_zero_for_mcf() {
        let outcome = train(&Mcf, &Input::set(3));
        let sm = outcome
            .model
            .stable_metric(MetricKind::Roots)
            .expect("Roots must be globally stable for mcf");
        assert!(
            sm.max < 20.0,
            "a connected network has few roots: [{:.1}, {:.1}]",
            sm.min,
            sm.max
        );
    }
}
