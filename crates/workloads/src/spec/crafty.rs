//! `crafty`-like chess engine: a transposition hash table whose entries
//! are almost all singleton chains, plus board/history buffers —
//! nearly everything is a leaf (paper Figure 7A: Leaves stable,
//! 85.3–97.1 %).

use crate::{Input, Workload, WorkloadKind};
use faults::FaultPlan;
use heapmd::{HeapError, Process};
use rand::Rng;
use sim_ds::{BufferPool, SimHashTable};

heapmd::interned! {
    /// The names this program interns once per run.
    struct Names {
        main: func("crafty::main"),
        init: func("crafty::init"),
        search_node: func("crafty::search_node"),
        cleanup: func("crafty::cleanup"),
    }
}

/// The crafty-like chess-engine workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Crafty;

impl Workload for Crafty {
    fn name(&self) -> &'static str {
        "crafty"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Spec
    }

    fn default_frq(&self) -> u64 {
        140
    }

    fn run(&self, p: &mut Process, plan: &mut FaultPlan, input: &Input) -> Result<(), HeapError> {
        let names = Names::new(p);
        let mut rng = input.rng();
        let tt_buckets = input.scaled(384);
        let boards = input.scaled(60);
        let iterations = input.scaled(1900);
        // Load factor < 1 keeps most chains singleton ⇒ leaf entries.
        let tt_target = (tt_buckets as f64 * (0.25 + input.shape() * 0.2)) as u64;

        p.enter(names.main);
        let mut tt = SimHashTable::new(p, tt_buckets, "crafty.ttable")?;
        let mut board_pool = BufferPool::new(p, boards, "crafty.board");
        // Killer-move chains: rebuilt between search phases.
        let mut killers = crate::PhaseFlipper::new(p, input.scaled(10), "crafty.killers")?;
        p.enter(names.init);
        for _ in 0..boards {
            board_pool.acquire(p, 128)?;
        }
        p.leave();

        let mut next_key = 0u64;
        let mut live: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        for i in 0..iterations {
            p.enter(names.search_node);
            board_pool.acquire(p, 128)?;
            // Probe, then store: keep the table near its target size.
            let probe = rng.gen_range(0..next_key.max(1));
            tt.lookup(p, probe)?;
            if (tt.len() as u64) < tt_target || rng.gen_bool(0.5) {
                tt.insert(p, plan, next_key)?;
                live.push_back(next_key);
                next_key += 1;
            }
            if tt.len() as u64 > tt_target {
                // Replacement: age out the oldest entry.
                if let Some(victim) = live.pop_front() {
                    tt.remove(p, victim)?;
                }
            }
            if i % 100 == 0 {
                board_pool.touch_all(p)?;
                killers.touch_all(p)?;
            }
            p.leave();
            if i % 350 == 349 {
                killers.flip(p)?;
            }
        }

        p.enter(names.cleanup);
        killers.free_all(p)?;
        board_pool.drain(p)?;
        tt.free_all(p)?;
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
    fn leaves_dominate_crafty() {
        let outcome = train(&Crafty, &Input::set(3));
        let sm = outcome
            .model
            .stable_metric(MetricKind::Leaves)
            .expect("Leaves must be globally stable for crafty");
        assert!(
            sm.min > 60.0 && sm.max > 80.0,
            "crafty should be leaf-dominated: [{:.1}, {:.1}]",
            sm.min,
            sm.max
        );
    }
}
