//! The PC game (action): a startup-built world oct-tree, a scene tree
//! with parent pointers, asset lists, LOD trees, portal graphs, and a
//! large asset buffer pool (paper Figure 7A/B: Indeg=1 stable,
//! 13.2–18.5 % — the Figure 10 program).
//!
//! Hosts 8 of the Table 2 bugs, including the two headline cases: the
//! Figure 10 scene-tree parent-pointer bug (heap anomaly) and the
//! oct-DAG construction bug (the paper's only *poorly disguised* bug).

use crate::{Input, Workload, WorkloadKind};
use faults::{FaultId, FaultPlan};
use heapmd::{HeapError, Process};
use rand::Rng;
use sim_ds::{
    BufferPool, GraphShape, SimBinTree, SimCircularList, SimDList, SimGraph, SimList, SimOctTree,
    TableDescriptors,
};

heapmd::interned! {
    /// The names this program interns once per run.
    struct Names {
        main: func("ga::main"),
        load_level: func("ga::load_level"),
        render_frame: func("ga::render_frame"),
        sweep: func("ga::sweep"),
        stream_world_chunk: func("ga::stream_world_chunk"),
        shutdown: func("ga::shutdown"),
    }
}

/// The action-game-like workload.
#[derive(Debug, Clone, Copy)]
pub struct GameAction {
    version: u8,
}

impl GameAction {
    /// The program at development version `version` (1–5).
    pub fn new(version: u8) -> Self {
        assert!((1..=5).contains(&version), "versions are 1..=5");
        GameAction { version }
    }

    /// The development version.
    pub fn version(&self) -> u8 {
        self.version
    }
}

impl Workload for GameAction {
    fn name(&self) -> &'static str {
        "game_action"
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

        let asset_buffers = sized(260);
        let asset_list_target = sized(70);
        let scene_baseline = sized(70);
        let lod_baseline = sized(30);
        let frames = sized(1300);

        p.enter(names.main);

        // --- Startup: level load ---------------------------------------
        p.enter(names.load_level);
        // The world oct-tree is built once at startup — where the
        // oct-DAG bug lives (a poorly disguised bug: it pins Indeg=1 at
        // an extreme from the very first samples).
        let world =
            SimOctTree::build_with_fault(p, plan, 2, "ga.world", FaultId("ga.world_octree.alias"))?;
        let mut assets = BufferPool::new(p, asset_buffers, "ga.asset_blob");
        for _ in 0..asset_buffers {
            assets.acquire(p, 160 + rng.gen_range(0..160))?;
        }
        let mut asset_list =
            SimDList::with_fault(p, "ga.assets", FaultId("ga.asset_dlist.skip_prev"))?;
        for k in 0..asset_list_target {
            asset_list.push_back(p, plan, k as u64)?;
        }
        let mut scene = SimBinTree::with_faults(
            p,
            "ga.scene",
            FaultId("ga.scene_tree.skip_parent"),
            FaultId("ga.scene_tree.single_child.unused"),
        );
        for _ in 0..scene_baseline {
            scene.insert(p, plan, rng.gen_range(0..1_000_000))?;
        }
        let mut lod = SimBinTree::with_faults(
            p,
            "ga.lod",
            FaultId("ga.lod_tree.skip_parent.unused"),
            FaultId("ga.lod_tree.single_child"),
        );
        for _ in 0..lod_baseline {
            lod.insert(p, plan, rng.gen_range(0..1_000_000))?;
        }
        let mut portals = SimGraph::generate_with_fault(
            p,
            plan,
            sized(30),
            2,
            GraphShape::Uniform,
            input.seed,
            "ga.portals",
            FaultId("ga.portal_graph.atypical"),
        )?;
        let mut particles: Vec<SimCircularList> = Vec::new();
        for _ in 0..sized(16) {
            let mut ring = SimCircularList::with_fault(
                p,
                "ga.particles",
                FaultId("ga.particle_ring.free_shared_head"),
            );
            for k in 0..6 {
                ring.push(p, k)?;
            }
            particles.push(ring);
        }
        let mut decals = SimList::with_fault(p, "ga.decal_list", FaultId("ga.decal_list.pop_leak"));
        for k in 0..16 {
            decals.push_front(p, k)?;
        }
        let mut asset_props = TableDescriptors::with_fault(
            p,
            16,
            "ga.asset_props",
            FaultId("ga.asset_props.typo_leak"),
        )?;
        for j in 0..16 {
            asset_props.set_props(p, j, 2)?;
        }
        // Draw-batch scratch: batched nodes gain a second reference
        // while grouped. Sized so the Indeg=1 signature (large
        // baseline) stays within thresholds while Indeg=2 (small
        // baseline) does not.
        let mut batches = crate::PhaseFlipper::with_style(
            p,
            sized(12),
            "ga.batches",
            crate::FlipStyle::DoubleLink,
        )?;
        p.leave();

        // --- Frame loop ---------------------------------------------------
        let rebuild_period = 220;
        for i in 0..frames {
            p.enter(names.render_frame);
            // Asset streaming.
            assets.acquire(p, 160 + rng.gen_range(0..160))?;
            if let Some(front) = asset_list.front(p)? {
                asset_list.remove(p, front)?;
            }
            asset_list.push_back(p, plan, i as u64)?;
            // Scene updates (the Figure 10 call-site): balanced churn.
            scene.insert(p, plan, rng.gen_range(0..1_000_000))?;
            scene.pop_leaf(p)?;
            // LOD selection.
            lod.insert(p, plan, rng.gen_range(0..1_000_000))?;
            lod.pop_leaf(p)?;
            lod.contains(p, rng.gen_range(0..1_000_000))?;
            // Particles cycle; decals rotate.
            let ring = i % particles.len();
            particles[ring].push(p, i as u64)?;
            particles[ring].rotate_free_head(p, plan)?;
            decals.push_front(p, i as u64)?;
            decals.pop_front(p, plan)?;
            // Visibility query.
            if i % 12 == 0 {
                portals.bfs_touch(p)?;
                world.touch_all(p)?;
            }
            // Property refreshes (the Fig.11 call-site).
            if i % 10 == 0 {
                let j = rng.gen_range(0..16);
                asset_props.collect_props(p, plan, j)?;
                asset_props.set_props(p, j, 2)?;
            }
            if i % 310 == 309 {
                batches.flip(p)?;
            }
            // Maintenance sweep: everything a frame renderer touches.
            if i % 40 == 17 {
                p.enter(names.sweep);
                batches.touch_all(p)?;
                for ring in &particles {
                    ring.walk(p)?;
                }
                portals.touch_all(p)?;
                scene.touch_all(p)?;
                lod.touch_all(p)?;
                asset_list.walk(p)?;
                decals.walk(p)?;
                assets.touch_all(p)?;
                for j in 0..16 {
                    asset_props.walk_props(p, j)?;
                }
                p.leave();
            }
            p.leave();

            if i % rebuild_period == rebuild_period - 1 {
                p.enter(names.stream_world_chunk);
                scene.free_all(p)?;
                for _ in 0..scene_baseline {
                    scene.insert(p, plan, rng.gen_range(0..1_000_000))?;
                }
                lod.free_all(p)?;
                for _ in 0..lod_baseline {
                    lod.insert(p, plan, rng.gen_range(0..1_000_000))?;
                }
                let fresh = SimGraph::generate_with_fault(
                    p,
                    plan,
                    sized(30),
                    2,
                    GraphShape::Uniform,
                    input.seed ^ i as u64,
                    "ga.portals",
                    FaultId("ga.portal_graph.atypical"),
                )?;
                std::mem::replace(&mut portals, fresh).free_all(p)?;
                p.leave();
            }
        }

        // --- Shutdown -------------------------------------------------------
        p.enter(names.shutdown);
        scene.free_all(p)?;
        lod.free_all(p)?;
        asset_list.free_all(p)?;
        decals.free_all(p)?;
        for ring in particles {
            ring.free_all(p)?;
        }
        portals.free_all(p)?;
        asset_props.free_all(p)?;
        batches.free_all(p)?;
        assets.drain(p)?;
        world.free_all(p)?;
        p.leave();
        p.leave();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{check, train};

    #[test]
    fn indeg1_is_stable_for_game_action() {
        let outcome = train(&GameAction::new(1), &Input::set(3));
        assert!(
            outcome.model.is_stable(heapmd::MetricKind::Indeg1),
            "Indeg=1 must be stable for game_action; stable: {:?}",
            outcome
                .model
                .stable
                .iter()
                .map(|s| s.kind)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn fig10_bug_is_detected() {
        let w = GameAction::new(1);
        let model = train(&w, &Input::set(4)).model;
        let spec = crate::bugs::CATALOG
            .iter()
            .find(|b| b.fault.0 == "ga.scene_tree.skip_parent")
            .expect("catalogued");
        let bugs = check(&w, &model, &Input::new(60), &mut spec.plan());
        assert!(
            !bugs.is_empty(),
            "the Figure 10 bug must raise an anomaly report"
        );
    }
}
