//! `gzip`-like compressor: the heap is dominated by large, pointer-free
//! window/block buffers, so *Leaves* sits in the high 80s and stays
//! there (paper Figure 7A: Leaves stable, 82.9–90.2 %).

use crate::{Input, Workload, WorkloadKind};
use faults::FaultPlan;
use heapmd::{HeapError, Process};
use rand::Rng;
use sim_ds::{BufferPool, SimList};

heapmd::interned! {
    /// The names this program interns once per run.
    struct Names {
        main: func("gzip::main"),
        init: func("gzip::init"),
        deflate_block: func("gzip::deflate_block"),
        cleanup: func("gzip::cleanup"),
    }
}

/// The gzip-like compressor workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gzip;

impl Workload for Gzip {
    fn name(&self) -> &'static str {
        "gzip"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Spec
    }

    fn default_frq(&self) -> u64 {
        120
    }

    fn run(&self, p: &mut Process, plan: &mut FaultPlan, input: &Input) -> Result<(), HeapError> {
        let names = Names::new(p);
        let mut rng = input.rng();
        // Window buffers dominate; a small chain of block descriptors
        // rides along. The input's shape nudges the buffer:descriptor
        // ratio, moving Leaves% a few points between inputs.
        let window_slots = input.scaled(180);
        let desc_target = 12 + (input.shape() * 28.0) as usize;
        let iterations = input.scaled(2200);

        p.enter(names.main);
        let mut windows = BufferPool::new(p, window_slots, "gzip.window");
        let mut descs = SimList::new(p, "gzip.block_desc");
        // Huffman-table scratch: alternates between built (chained) and
        // torn-down per compression phase. Small next to the window
        // buffers, so Leaves stays stable while the low-baseline
        // indegree/outdegree=1 metrics do not.
        let mut huffman = crate::PhaseFlipper::new(p, input.scaled(8), "gzip.huffman")?;

        // Startup: prime the window.
        p.enter(names.init);
        for _ in 0..window_slots {
            windows.acquire(p, 256 + rng.gen_range(0..256))?;
        }
        p.leave();

        for i in 0..iterations {
            p.enter(names.deflate_block);
            windows.acquire(p, 256 + rng.gen_range(0..256))?;
            if descs.len() < desc_target || rng.gen_bool(0.5) {
                descs.push_front(p, i as u64)?;
            }
            if descs.len() > desc_target {
                descs.pop_front(p, plan)?;
            }
            if i % 64 == 0 {
                descs.walk(p)?;
                windows.touch_all(p)?;
                huffman.touch_all(p)?;
            }
            p.leave();
            if i % 300 == 299 {
                huffman.flip(p)?;
            }
        }

        // Shutdown.
        p.enter(names.cleanup);
        huffman.free_all(p)?;
        windows.drain(p)?;
        descs.free_all(p)?;
        p.leave();
        p.leave();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{settings_for, train};
    use heapmd::MetricKind;

    #[test]
    fn leaves_is_stable_in_the_high_80s() {
        let w = Gzip;
        let outcome = train(&w, &Input::set(4));
        let model = outcome.model;
        let sm = model
            .stable_metric(MetricKind::Leaves)
            .expect("Leaves must be globally stable for gzip");
        assert!(
            sm.min > 70.0 && sm.max <= 100.0,
            "Leaves range off: [{:.1}, {:.1}]",
            sm.min,
            sm.max
        );
        assert!(sm.avg_change.abs() <= 1.0);
    }

    #[test]
    fn runs_are_deterministic_per_input() {
        let w = Gzip;
        let settings = settings_for(&w);
        let a = crate::harness::run_once(&w, &Input::new(1), &mut FaultPlan::new(), &settings);
        let b = crate::harness::run_once(&w, &Input::new(1), &mut FaultPlan::new(), &settings);
        assert_eq!(a.samples, b.samples);
    }
}
