//! The productivity application: a piece-table B-tree for document
//! text, an outline tree, style and annotation chains, and a
//! cross-reference hash (paper Figure 7A/B: Leaves stable,
//! 27.9–41.1 %).
//!
//! Hosts 5 of the Table 2 bugs (4 data-structure invariants, 1
//! indirect) — the paper's productivity app had no typo or shared-state
//! bugs.

use crate::{Input, Workload, WorkloadKind};
use faults::{FaultId, FaultPlan};
use heapmd::{HeapError, Process};
use rand::Rng;
use sim_ds::{BufferPool, SimBTree, SimBinTree, SimDList, SimHashTable};

heapmd::interned! {
    /// The names this program interns once per run.
    struct Names {
        main: func("prod::main"),
        open_document: func("prod::open_document"),
        apply_edit: func("prod::apply_edit"),
        sweep: func("prod::sweep"),
        repaginate: func("prod::repaginate"),
        close_document: func("prod::close_document"),
    }
}

/// The office-suite-like workload.
#[derive(Debug, Clone, Copy)]
pub struct Productivity {
    version: u8,
}

impl Productivity {
    /// The program at development version `version` (1–5).
    pub fn new(version: u8) -> Self {
        assert!((1..=5).contains(&version), "versions are 1..=5");
        Productivity { version }
    }

    /// The development version.
    pub fn version(&self) -> u8 {
        self.version
    }
}

impl Workload for Productivity {
    fn name(&self) -> &'static str {
        "productivity"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Commercial
    }

    fn default_frq(&self) -> u64 {
        400
    }

    fn run(&self, p: &mut Process, plan: &mut FaultPlan, input: &Input) -> Result<(), HeapError> {
        let names = Names::new(p);
        let mut rng = input.rng();
        let vscale = 1.0 + 0.04 * (self.version as f64 - 1.0);
        let sized = |base: usize| ((base as f64 * input.scale() * vscale) as usize).max(1);

        let piece_baseline = sized(130);
        let outline_baseline = sized(60);
        let style_target = sized(40);
        let anno_target = sized(30);
        let para_buffers = sized(80);
        let xref_buckets = sized(64);
        let xref_target = sized(90) as u64;
        let edits = sized(1300);

        p.enter(names.main);

        p.enter(names.open_document);
        let piece_shard_size = (piece_baseline / 4).max(4);
        let mut pieces: Vec<SimBTree> = Vec::new();
        for _ in 0..4 {
            let mut shard =
                SimBTree::with_fault(p, "prod.pieces", FaultId("prod.piece_btree.skip_sibling"))?;
            for _ in 0..piece_shard_size {
                shard.insert(p, plan, rng.gen_range(0..1_000_000))?;
            }
            pieces.push(shard);
        }
        let mut outline = SimBinTree::with_faults(
            p,
            "prod.outline",
            FaultId("prod.outline_tree.skip_parent"),
            FaultId("prod.outline_tree.single_child.unused"),
        );
        for _ in 0..outline_baseline {
            outline.insert(p, plan, rng.gen_range(0..1_000_000))?;
        }
        let mut styles =
            SimDList::with_fault(p, "prod.styles", FaultId("prod.style_dlist.skip_prev"))?;
        for k in 0..style_target {
            styles.push_back(p, plan, k as u64)?;
        }
        let mut annos =
            SimDList::with_fault(p, "prod.annotations", FaultId("prod.anno_dlist.skip_prev"))?;
        for k in 0..anno_target {
            annos.push_back(p, plan, k as u64)?;
        }
        let mut paragraphs = BufferPool::new(p, para_buffers, "prod.paragraph");
        for _ in 0..para_buffers {
            paragraphs.acquire(p, 96 + rng.gen_range(0..64))?;
        }
        let mut xrefs = SimHashTable::with_fault(
            p,
            xref_buckets,
            "prod.xrefs",
            FaultId("prod.ref_hash.degenerate"),
        )?;
        let mut next_ref = 0u64;
        let mut live_refs: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        while (xrefs.len() as u64) < xref_target {
            xrefs.insert(p, plan, next_ref)?;
            live_refs.push_back(next_ref);
            next_ref += 1;
        }
        // Clipboard scratch: populated while editing a selection,
        // dropped on paste.
        let mut clipboard = crate::PhaseFlipper::new(p, sized(14), "prod.clipboard")?;
        p.leave();

        let rebuild_period = 120;
        for i in 0..edits {
            p.enter(names.apply_edit);
            // Piece-table updates (the skip-sibling call-site splits):
            // steady split traffic across the shards.
            if i % 3 == 0 {
                pieces[rng.gen_range(0..4)].insert(p, plan, rng.gen_range(0..1_000_000))?;
            }
            pieces[i % 4].contains(p, rng.gen_range(0..1_000_000))?;
            // Outline restructure: balanced churn.
            outline.insert(p, plan, rng.gen_range(0..1_000_000))?;
            outline.pop_leaf(p)?;
            // Style/annotation chains churn.
            if let Some(front) = styles.front(p)? {
                styles.remove(p, front)?;
            }
            styles.push_back(p, plan, i as u64)?;
            if i % 2 == 0 {
                if let Some(front) = annos.front(p)? {
                    annos.remove(p, front)?;
                }
                annos.push_back(p, plan, i as u64)?;
            }
            // Maintenance sweep: repagination and autosave touch the
            // whole document model.
            if i % 40 == 17 {
                p.enter(names.sweep);
                for shard in &pieces {
                    shard.touch_all(p)?;
                }
                outline.touch_all(p)?;
                styles.walk(p)?;
                annos.walk(p)?;
                paragraphs.touch_all(p)?;
                clipboard.touch_all(p)?;
                xrefs.longest_chain(p)?;
                p.leave();
            }
            // Paragraph buffers recycle; xrefs churn.
            paragraphs.acquire(p, 96 + rng.gen_range(0..64))?;
            xrefs.lookup(p, rng.gen_range(0..next_ref.max(1)))?;
            xrefs.insert(p, plan, next_ref)?;
            live_refs.push_back(next_ref);
            next_ref += 1;
            if xrefs.len() as u64 > xref_target {
                if let Some(victim) = live_refs.pop_front() {
                    xrefs.remove(p, victim)?;
                }
            }
            p.leave();

            if i % 260 == 259 {
                clipboard.flip(p)?;
            }
            if i % rebuild_period == rebuild_period - 1 {
                p.enter(names.repaginate);
                let shard_idx = (i / rebuild_period) % pieces.len();
                let mut fresh = SimBTree::with_fault(
                    p,
                    "prod.pieces",
                    FaultId("prod.piece_btree.skip_sibling"),
                )?;
                for _ in 0..piece_shard_size {
                    fresh.insert(p, plan, rng.gen_range(0..1_000_000))?;
                }
                std::mem::replace(&mut pieces[shard_idx], fresh).free_all(p)?;
                p.leave();
            }
        }

        p.enter(names.close_document);
        for shard in pieces {
            shard.free_all(p)?;
        }
        outline.free_all(p)?;
        styles.free_all(p)?;
        annos.free_all(p)?;
        paragraphs.drain(p)?;
        clipboard.free_all(p)?;
        xrefs.free_all(p)?;
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
    fn leaves_is_stable_for_productivity() {
        let outcome = train(&Productivity::new(1), &Input::set(3));
        assert!(
            outcome.model.is_stable(MetricKind::Leaves),
            "Leaves must be stable for productivity; stable: {:?}",
            outcome
                .model
                .stable
                .iter()
                .map(|s| s.kind)
                .collect::<Vec<_>>()
        );
    }
}
