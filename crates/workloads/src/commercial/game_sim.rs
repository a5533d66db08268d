//! The PC game (simulation): unit rosters, order queues, event/anim/
//! sound rings, a terrain index, a collision hash, and a spatial graph
//! (paper Figure 7A/B: Outdeg=1 stable).
//!
//! Hosts 9 of the Table 2 bugs, one tiny leak, and the benign AI cache
//! behind SWAT's Table 1 false positive.

use crate::{Input, Workload, WorkloadKind};
use faults::{FaultId, FaultPlan};
use heapmd::{HeapError, Process};
use rand::Rng;
use sim_ds::{
    GraphShape, SimBTree, SimCircularList, SimDList, SimGraph, SimHashTable, SimList, StaleCache,
    TableDescriptors,
};

heapmd::interned! {
    /// The names this program interns once per run.
    struct Names {
        main: func("gs::main"),
        load_map: func("gs::load_map"),
        tick: func("gs::tick"),
        sweep: func("gs::sweep"),
        stream_terrain: func("gs::stream_terrain"),
        shutdown: func("gs::shutdown"),
    }
}

/// The simulation-game-like workload.
#[derive(Debug, Clone, Copy)]
pub struct GameSim {
    version: u8,
}

impl GameSim {
    /// The program at development version `version` (1–5).
    pub fn new(version: u8) -> Self {
        assert!((1..=5).contains(&version), "versions are 1..=5");
        GameSim { version }
    }

    /// The development version.
    pub fn version(&self) -> u8 {
        self.version
    }
}

impl Workload for GameSim {
    fn name(&self) -> &'static str {
        "game_sim"
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

        let unit_target = sized(60);
        let order_lists = sized(20);
        let order_len = 4;
        let ring_count = sized(18);
        let ring_size = 6;
        let terrain_baseline = sized(80);
        let hash_buckets = sized(96);
        let hash_target = sized(120) as u64;
        let ticks = sized(1300);

        p.enter(names.main);

        p.enter(names.load_map);
        let mut units = SimDList::with_fault(p, "gs.units", FaultId("gs.unit_dlist.skip_prev"))?;
        for k in 0..unit_target {
            units.push_back(p, plan, k as u64)?;
        }
        let mut orders: Vec<SimList> = (0..order_lists)
            .map(|_| SimList::with_fault(p, "gs.order_queue", FaultId("gs.order_queue.pop_leak")))
            .collect();
        for q in &mut orders {
            for k in 0..order_len {
                q.push_front(p, k as u64)?;
            }
        }
        let mut rings: Vec<SimCircularList> = Vec::new();
        for r in 0..ring_count {
            let fault = match r % 3 {
                0 => FaultId("gs.event_ring.free_shared_head"),
                1 => FaultId("gs.anim_ring.free_shared_head"),
                _ => FaultId("gs.sound_ring.free_shared_head"),
            };
            let mut ring = SimCircularList::with_fault(p, "gs.ring", fault);
            for k in 0..ring_size {
                ring.push(p, k as u64)?;
            }
            rings.push(ring);
        }
        let terrain_shard_size = (terrain_baseline / 4).max(4);
        let mut terrain: Vec<SimBTree> = Vec::new();
        for _ in 0..4 {
            let mut shard =
                SimBTree::with_fault(p, "gs.terrain", FaultId("gs.terrain_btree.skip_sibling"))?;
            for _ in 0..terrain_shard_size {
                shard.insert(p, plan, rng.gen_range(0..1_000_000))?;
            }
            terrain.push(shard);
        }
        let mut collisions = SimHashTable::with_fault(
            p,
            hash_buckets,
            "gs.collision",
            FaultId("gs.collision_hash.degenerate"),
        )?;
        let mut next_key = 0u64;
        let mut live_keys: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
        while (collisions.len() as u64) < hash_target {
            collisions.insert(p, plan, next_key)?;
            live_keys.push_back(next_key);
            next_key += 1;
        }
        let mut unit_props = TableDescriptors::with_fault(
            p,
            20,
            "gs.unit_props",
            FaultId("gs.unit_props.typo_leak"),
        )?;
        let mut path_props = TableDescriptors::with_fault(
            p,
            20,
            "gs.path_props",
            FaultId("gs.path_props.typo_leak"),
        )?;
        for j in 0..20 {
            unit_props.set_props(p, j, 2)?;
            path_props.set_props(p, j, 2)?;
        }
        let spatial = SimGraph::generate(
            p,
            plan,
            sized(36),
            2,
            GraphShape::Uniform,
            input.seed,
            "gs.spatial",
        )?;
        let mut ai_cache =
            StaleCache::with_fault(p, sized(24), "gs.ai_cache", FaultId("gs.ai_cache.never"))?;
        for k in 0..sized(24) {
            ai_cache.insert(p, plan, k as u64)?;
        }
        let mut replays =
            SimList::with_fault(p, "gs.replay_list", FaultId("gs.replay_list.tiny_leak"));
        for k in 0..8 {
            replays.push_front(p, k)?;
        }
        // Formation scratch: units gain a second reference while
        // grouped (double-link flips leave Outdeg=1 — the signature —
        // and Roots untouched).
        let mut formations = crate::PhaseFlipper::with_style(
            p,
            sized(22),
            "gs.formations",
            crate::FlipStyle::DoubleLink,
        )?;
        p.leave();

        let rebuild_period = 300;
        for i in 0..ticks {
            p.enter(names.tick);
            // Unit roster churn.
            if let Some(front) = units.front(p)? {
                units.remove(p, front)?;
            }
            units.push_back(p, plan, i as u64)?;
            // Order queues: one pop (the leak call-site) + one push.
            let q = i % orders.len();
            orders[q].pop_front(p, plan)?;
            orders[q].push_front(p, i as u64)?;
            // Rings schedule events.
            let r = i % rings.len();
            rings[r].push(p, i as u64)?;
            rings[r].rotate_free_head(p, plan)?;
            // Collision hash churn.
            collisions.lookup(p, rng.gen_range(0..next_key.max(1)))?;
            collisions.insert(p, plan, next_key)?;
            live_keys.push_back(next_key);
            next_key += 1;
            if collisions.len() as u64 > hash_target {
                if let Some(victim) = live_keys.pop_front() {
                    collisions.remove(p, victim)?;
                }
            }
            // Terrain streaming trickles split traffic.
            if i % 5 == 0 {
                terrain[rng.gen_range(0..4)].insert(p, plan, rng.gen_range(0..1_000_000))?;
            }
            // Pathfinding touches the spatial graph.
            if i % 12 == 0 {
                spatial.bfs_touch(p)?;
            }
            // Property refreshes (the Fig.11 call-sites).
            if i % 10 == 0 {
                let j = rng.gen_range(0..20);
                unit_props.collect_props(p, plan, j)?;
                unit_props.set_props(p, j, 2)?;
                let j = rng.gen_range(0..20);
                path_props.collect_props(p, plan, j)?;
                path_props.set_props(p, j, 2)?;
            }
            if i % 16 == 0 {
                replays.push_front(p, i as u64)?;
                replays.pop_front(p, plan)?;
            }
            if i % 290 == 289 {
                formations.flip(p)?;
            }
            // Maintenance sweep: game state is hot every few dozen
            // ticks; the AI cache stays cold on purpose.
            if i % 40 == 17 {
                p.enter(names.sweep);
                formations.touch_all(p)?;
                for ring in &rings {
                    ring.walk(p)?;
                }
                spatial.touch_all(p)?;
                for shard in &terrain {
                    shard.touch_all(p)?;
                }
                units.walk(p)?;
                for q in &orders {
                    q.walk(p)?;
                }
                replays.walk(p)?;
                collisions.longest_chain(p)?;
                for j in 0..20 {
                    unit_props.walk_props(p, j)?;
                    path_props.walk_props(p, j)?;
                }
                p.leave();
            }
            p.leave();

            if i % rebuild_period == rebuild_period - 1 {
                p.enter(names.stream_terrain);
                let shard_idx = (i / rebuild_period) % terrain.len();
                let mut fresh = SimBTree::with_fault(
                    p,
                    "gs.terrain",
                    FaultId("gs.terrain_btree.skip_sibling"),
                )?;
                for _ in 0..terrain_shard_size {
                    fresh.insert(p, plan, rng.gen_range(0..1_000_000))?;
                }
                std::mem::replace(&mut terrain[shard_idx], fresh).free_all(p)?;
                p.leave();
            }
        }

        p.enter(names.shutdown);
        units.free_all(p)?;
        for mut q in orders {
            q.free_all(p)?;
        }
        for ring in rings {
            ring.free_all(p)?;
        }
        for shard in terrain {
            shard.free_all(p)?;
        }
        collisions.free_all(p)?;
        unit_props.free_all(p)?;
        path_props.free_all(p)?;
        spatial.free_all(p)?;
        ai_cache.free_all(p)?;
        replays.free_all(p)?;
        formations.free_all(p)?;
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
    fn outdeg1_is_stable_for_game_sim() {
        let outcome = train(&GameSim::new(1), &Input::set(3));
        assert!(
            outcome.model.is_stable(MetricKind::Outdeg1),
            "Outdeg=1 must be stable for game_sim; stable: {:?}",
            outcome
                .model
                .stable
                .iter()
                .map(|s| s.kind)
                .collect::<Vec<_>>()
        );
    }
}
